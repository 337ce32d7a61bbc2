module M = Map.Make (Int)

type t = {
  mutable globals_next : Page.addr;
  mutable heap_next : Page.addr;
  mutable tls_next : (int, Page.addr) Hashtbl.t;
  mutable objects : (int * string) M.t;  (* base -> (len, tag) *)
}

let create () =
  {
    globals_next = Layout.globals_base;
    heap_next = Layout.heap_base;
    tls_next = Hashtbl.create 16;
    objects = M.empty;
  }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let round_up addr align = (addr + align - 1) land lnot (align - 1)

let register t base len tag =
  t.objects <- M.add base (len, tag) t.objects;
  base

let alloc_static t ?(align = 8) ~bytes ~tag () =
  if bytes <= 0 then invalid_arg "Allocator.alloc_static: bad size";
  if not (is_pow2 align) then invalid_arg "Allocator.alloc_static: bad align";
  let base = round_up t.globals_next align in
  if base + bytes > Layout.globals_base + Layout.globals_size then
    failwith "Allocator: global segment exhausted";
  t.globals_next <- base + bytes;
  register t base bytes tag

let heap_alloc t align bytes tag =
  if bytes <= 0 then invalid_arg "Allocator: bad size";
  if not (is_pow2 align) then invalid_arg "Allocator: bad align";
  let base = round_up t.heap_next align in
  if base + bytes > Layout.heap_base + Layout.heap_size then
    failwith "Allocator: heap exhausted";
  t.heap_next <- base + bytes;
  register t base bytes tag

let malloc t ~bytes ~tag = heap_alloc t 16 bytes tag
let memalign t ~align ~bytes ~tag = heap_alloc t align bytes tag

let tls_alloc t ~tid ~bytes ~tag =
  if bytes <= 0 then invalid_arg "Allocator.tls_alloc: bad size";
  let next =
    match Hashtbl.find_opt t.tls_next tid with
    | Some a -> a
    | None -> Layout.tls_for ~tid
  in
  let base = round_up next 8 in
  if base + bytes > Layout.tls_for ~tid + Layout.tls_slot_size then
    failwith "Allocator: TLS block exhausted";
  Hashtbl.replace t.tls_next tid (base + bytes);
  register t base bytes (Printf.sprintf "%s(tls:%d)" tag tid)

let object_at t addr =
  match M.find_last_opt (fun base -> base <= addr) t.objects with
  | Some (base, (len, tag)) when addr < base + len -> Some (tag, base, len)
  | _ -> None

let objects t =
  M.fold (fun base (len, tag) acc -> (base, len, tag) :: acc) t.objects []
  |> List.rev

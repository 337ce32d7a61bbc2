module M = Map.Make (Int)

type t = {
  mutable globals_next : Page.addr;
  mutable heap_next : Page.addr;
  mutable objects : (int * string) M.t;  (* base -> (len, tag) *)
}

let create () =
  {
    globals_next = Layout.globals_base;
    heap_next = Layout.heap_base;
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

let object_at t addr =
  match M.find_last_opt (fun base -> base <= addr) t.objects with
  | Some (base, (len, tag)) when addr < base + len -> Some (tag, base, len)
  | _ -> None

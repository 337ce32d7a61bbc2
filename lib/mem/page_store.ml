(* A resident page: its buffer, and whether another holder (a message, the
   HA log, a replica or another store) may see that buffer. Buffers leave
   the store; entries never do. *)
type entry = { mutable buf : Bytes.t; mutable shared : bool }
type t = entry Radix_tree.t

let create () = Radix_tree.create ()

let entry t p =
  match Radix_tree.find t p with
  | Some e -> e
  | None ->
      let e = { buf = Bytes.make Page.size '\000'; shared = false } in
      Radix_tree.set t p e;
      e

(* The buffer a write may mutate: a shared one is copied first, once, and
   the entry is private from then on. *)
let writable t p =
  let e = entry t p in
  if e.shared then begin
    e.buf <- Bytes.copy e.buf;
    e.shared <- false
  end;
  e.buf

let check_offset offset name =
  if offset < 0 || offset + 8 > Page.size then
    invalid_arg ("Page_store." ^ name ^ ": offset out of page");
  if offset land 7 <> 0 then
    invalid_arg ("Page_store." ^ name ^ ": misaligned offset")

let read_i64 t p ~offset =
  check_offset offset "read_i64";
  Bytes.get_int64_le (entry t p).buf offset

let write_i64 t p ~offset v =
  check_offset offset "write_i64";
  Bytes.set_int64_le (writable t p) offset v

let snapshot t p =
  let e = entry t p in
  e.shared <- true;
  e.buf

let set t p b ~shared ~name =
  if Bytes.length b <> Page.size then
    invalid_arg ("Page_store." ^ name ^ ": wrong page size");
  match Radix_tree.find t p with
  | Some e ->
      e.buf <- b;
      e.shared <- shared
  | None -> Radix_tree.set t p { buf = b; shared }

let install t p b = set t p b ~shared:true ~name:"install"
let adopt t p b = set t p b ~shared:false ~name:"adopt"

let own t p =
  match Radix_tree.find t p with Some e -> e.shared <- false | None -> ()

let take t p =
  match Radix_tree.find t p with
  | None -> None
  | Some e ->
      Radix_tree.remove t p;
      Some (e.buf, not e.shared)

let drop t p = Radix_tree.remove t p

let materialized t = Radix_tree.length t
let mem t p = Radix_tree.mem t p

let fold t ~init ~f =
  Radix_tree.fold t ~init ~f:(fun p e acc ->
      e.shared <- true;
      f p e.buf acc)

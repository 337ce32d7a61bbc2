type t = Bytes.t Radix_tree.t

let create () = Radix_tree.create ()

let page t p =
  match Radix_tree.find t p with
  | Some b -> b
  | None ->
      let b = Bytes.make Page.size '\000' in
      Radix_tree.set t p b;
      b

let check_offset offset width name =
  if offset < 0 || offset + width > Page.size then
    invalid_arg ("Page_store." ^ name ^ ": offset out of page");
  if offset land (width - 1) <> 0 then
    invalid_arg ("Page_store." ^ name ^ ": misaligned offset")

let read_i64 t p ~offset =
  check_offset offset 8 "read_i64";
  Bytes.get_int64_le (page t p) offset

let write_i64 t p ~offset v =
  check_offset offset 8 "write_i64";
  Bytes.set_int64_le (page t p) offset v

let read_byte t p ~offset =
  check_offset offset 1 "read_byte";
  Char.code (Bytes.get (page t p) offset)

let write_byte t p ~offset v =
  check_offset offset 1 "write_byte";
  Bytes.set (page t p) offset (Char.chr (v land 0xff))

let snapshot t p = Bytes.copy (page t p)

let install t p b =
  if Bytes.length b <> Page.size then
    invalid_arg "Page_store.install: wrong page size";
  Radix_tree.set t p b

let drop t p = Radix_tree.remove t p

let materialized t = Radix_tree.length t
let mem t p = Radix_tree.mem t p

let fold t ~init ~f = Radix_tree.fold t ~init ~f:(fun p b acc -> f p b acc)

type fd = int

type file = { mutable size : int }

type open_file = { file : file; mutable cursor : int }

type t = {
  files : (string, file) Hashtbl.t;
  fds : (fd, open_file) Hashtbl.t;
  mutable next_fd : int;
}

let create () = { files = Hashtbl.create 16; fds = Hashtbl.create 16; next_fd = 3 }

let open_file t name =
  let file =
    match Hashtbl.find_opt t.files name with
    | Some f -> f
    | None ->
        let f = { size = 0 } in
        Hashtbl.add t.files name f;
        f
  in
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.add t.fds fd { file; cursor = 0 };
  fd

let lookup t fd name =
  match Hashtbl.find_opt t.fds fd with
  | Some o -> o
  | None -> invalid_arg (Printf.sprintf "Vfs.%s: bad fd %d" name fd)

let read t fd ~bytes =
  if bytes < 0 then invalid_arg "Vfs.read: negative size";
  let o = lookup t fd "read" in
  let n = max 0 (min bytes (o.file.size - o.cursor)) in
  o.cursor <- o.cursor + n;
  n

let write t fd ~bytes =
  if bytes < 0 then invalid_arg "Vfs.write: negative size";
  let o = lookup t fd "write" in
  o.cursor <- o.cursor + bytes;
  if o.cursor > o.file.size then o.file.size <- o.cursor

let close t fd =
  ignore (lookup t fd "close");
  Hashtbl.remove t.fds fd

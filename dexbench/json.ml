(* Just enough JSON writing for the result line and the trace file. *)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float carries: the result line reports values as
   measured, not rounded. *)
let num v =
  if not (Float.is_finite v) then invalid_arg "Json.num: not finite";
  Printf.sprintf "%.17g" v

let int = string_of_int
let bool = string_of_bool

let obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
  ^ "}"

let arr items = "[" ^ String.concat ",\n" items ^ "]"

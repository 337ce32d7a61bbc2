(* A cell outlives [reset], which only zeroes it and marks it unused, so
   a {!counter} handle held by a hot path never goes stale. *)
type counter = { mutable n : int; mutable used : bool }
type t = (string, counter) Hashtbl.t

let create () = Hashtbl.create 32

let counter t name =
  match Hashtbl.find t name with
  | c -> c
  | exception Not_found ->
      let c = { n = 0; used = false } in
      Hashtbl.add t name c;
      c

let bump c n =
  c.n <- c.n + n;
  c.used <- true

let add t name n = bump (counter t name) n
let incr t name = add t name 1

let get t name =
  match Hashtbl.find t name with c -> c.n | exception Not_found -> 0

let to_list t =
  Hashtbl.fold (fun k c acc -> if c.used then (k, c.n) :: acc else acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset t =
  Hashtbl.iter
    (fun _ c ->
      c.n <- 0;
      c.used <- false)
    t

open Dex_sim

type entry = {
  server : Resource.Server.t;
  mutable active : int;  (* transfers in flight through this tenant *)
}

type t = {
  engine : Engine.t;
  total : float;
  cap : float;
  entries : (int, entry) Hashtbl.t;
  mutable nbacklogged : int;
  mutable recomputes : int;
}

let create engine ~bytes_per_us ~cap =
  if bytes_per_us <= 0.0 then
    invalid_arg "Fairshare.create: bytes_per_us must be > 0";
  if cap <= 0.0 || cap > 1.0 then
    invalid_arg "Fairshare.create: cap must be in (0, 1]";
  {
    engine;
    total = bytes_per_us;
    cap;
    entries = Hashtbl.create 16;
    nbacklogged = 0;
    recomputes = 0;
  }

let recompute t =
  t.recomputes <- t.recomputes + 1;
  if t.nbacklogged > 0 then begin
    let bytes_per_us =
      t.total *. Float.min t.cap (1.0 /. float_of_int t.nbacklogged)
    in
    Hashtbl.iter
      (fun _ e ->
        if e.active > 0 then Resource.Server.set_rate e.server ~bytes_per_us)
      t.entries
  end

let register t ~key =
  if Hashtbl.mem t.entries key then
    invalid_arg "Fairshare.register: duplicate key";
  (* Rated as if alone at the gate; re-rated on first contention. *)
  let server =
    Resource.Server.create t.engine ~bytes_per_us:(t.total *. t.cap)
  in
  Hashtbl.replace t.entries key { server; active = 0 }

let find t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None -> raise Not_found

let transfer t ~key ~bytes =
  let e = find t key in
  e.active <- e.active + 1;
  if e.active = 1 then begin
    t.nbacklogged <- t.nbacklogged + 1;
    recompute t
  end;
  Fun.protect
    (fun () -> Resource.Server.transfer e.server ~bytes)
    ~finally:(fun () ->
      e.active <- e.active - 1;
      if e.active = 0 then begin
        t.nbacklogged <- t.nbacklogged - 1;
        recompute t
      end)

let rate t ~key = Resource.Server.rate (find t key).server
let backlogged t = t.nbacklogged
let recomputes t = t.recomputes

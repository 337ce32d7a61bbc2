type t = {
  server : Dex_sim.Resource.Server.t;
  contention : float;
  mutable active : int;
}

let create engine ~bytes_per_us ~contention =
  if contention < 0.0 then invalid_arg "Membw.create: negative contention";
  {
    server = Dex_sim.Resource.Server.create engine ~bytes_per_us;
    contention;
    active = 0;
  }

let stream t ~bytes =
  t.active <- t.active + 1;
  let factor = 1.0 +. (t.contention *. float_of_int (t.active - 1)) in
  let inflated = int_of_float (Float.round (float_of_int bytes *. factor)) in
  Fun.protect
    ~finally:(fun () -> t.active <- t.active - 1)
    (fun () -> Dex_sim.Resource.Server.transfer t.server ~bytes:inflated)


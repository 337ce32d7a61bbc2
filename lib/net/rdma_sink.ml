type t = {
  pool : Dex_sim.Resource.Pool.t;
  copy_ns_per_byte : float;
}

let create engine ~slots ~copy_ns_per_byte =
  if copy_ns_per_byte < 0.0 then invalid_arg "Rdma_sink: negative copy cost";
  {
    pool = Dex_sim.Resource.Pool.create engine ~capacity:slots;
    copy_ns_per_byte;
  }

let slots t = Dex_sim.Resource.Pool.capacity t.pool
let in_use t = Dex_sim.Resource.Pool.in_use t.pool
let exhaustion_waits t = Dex_sim.Resource.Pool.waits t.pool
let acquire t = Dex_sim.Resource.Pool.acquire t.pool

let copy_ns t ~bytes =
  int_of_float (Float.round (float_of_int bytes *. t.copy_ns_per_byte))

let release t = Dex_sim.Resource.Pool.release t.pool

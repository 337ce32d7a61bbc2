type payload = ..

type t = {
  src : int;
  dst : int;
  pid : int;
  size : int;
  kind : string;
  payload : payload;
}

let pp fmt t =
  Format.fprintf fmt "[%s pid %d %d->%d %dB]" t.kind t.pid t.src t.dst t.size

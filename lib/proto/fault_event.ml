type kind = Read | Write | Invalidation

type t = {
  time : Dex_sim.Time_ns.t;
  node : int;
  tid : int;
  kind : kind;
  site : string;
  addr : Dex_mem.Page.addr;
  latency : Dex_sim.Time_ns.t;
  retries : int;
}

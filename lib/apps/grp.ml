open Dex_core
module A = App_common

type params = {
  text_bytes : int;
  key_interval : int;
  cpu_ns_per_byte : float;
  chunk_bytes : int;
}

let default_params =
  {
    text_bytes = 32 * 1024 * 1024;
    key_interval = 2 * 1024;
    cpu_ns_per_byte = 10.0;
    chunk_bytes = 1024 * 1024;
  }

(* Capitalized keys cannot arise from the all-lowercase corpus words, so
   every occurrence is an embedded one. *)
let keys = [ "Popcorn"; "LinuxKer"; "DeXsystem"; "Infiniband" ]

let conversion =
  {
    A.multithread = "Pthread";
    initial_added = 2;
    initial_removed = 0;
    optimized_added = 14;
    optimized_removed = 6;
  }

(* The corpus is expensive to build; the oracle keeps only the sorted
   positions of all key matches. *)
type oracle = { positions : int array }

let oracle =
  let build (p, seed) =
    let text =
      Workloads.text_corpus ~key_interval:p.key_interval ~seed
        ~bytes:p.text_bytes ~keys ()
    in
    let positions = ref [] in
    List.iter
      (fun k ->
        let kl = String.length k in
        let first = k.[0] in
        for i = 0 to Bytes.length text - kl do
          if Bytes.get text i = first && Bytes.sub_string text i kl = k then
            positions := i :: !positions
        done)
      keys;
    let arr = Array.of_list !positions in
    Array.sort compare arr;
    { positions = arr }
  in
  let memo = A.memo build in
  fun p ~seed -> memo (p, seed)

let expected_matches p ~seed = Array.length (oracle p ~seed).positions

let lower_bound positions bound =
  let n = Array.length positions in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if positions.(mid) < bound then go (mid + 1) hi else go lo mid
  in
  go 0 n

(* Matches within [off, off+len). *)
let matches_in positions ~off ~len =
  lower_bound positions (off + len) - lower_bound positions off

let body p positions ctx main =
  let threads = ctx.A.threads in
  (* Thread argument blocks: the original program packs them into one
     array — on Initial they share pages; Optimized page-aligns each. *)
  let args_addr, args_stride =
    match ctx.A.variant with
    | A.Baseline | A.Initial ->
        (Process.malloc main ~bytes:(threads * 32) ~tag:"grp.args", 32)
    | A.Optimized ->
        ( Process.memalign main ~align:4096 ~bytes:(threads * 4096)
            ~tag:"grp.args",
          4096 )
  in
  let total_addr =
    match ctx.A.variant with
    | A.Baseline | A.Initial ->
        (* Co-located with whatever the allocator packs next to it. *)
        Process.malloc main ~bytes:8 ~tag:"grp.total"
    | A.Optimized ->
        Process.memalign main ~align:4096 ~bytes:8 ~tag:"grp.total"
  in
  Process.store main total_addr 0L;
  A.parallel_region ctx (fun i th ->
      let off, len = A.partition ~total:p.text_bytes ~parts:threads ~index:i in
      if len > 0 then begin
        (* Read the partition from NFS into a thread-private buffer; the
           buffer's pages must still be claimed from the origin. *)
        let buf =
          Process.malloc th ~bytes:(max len 8) ~tag:"grp.buffer"
        in
        let local_count = ref 0 in
        let pos = ref off in
        let scan th bytes =
          if bytes > 0 then
            Process.compute_membound th
              ~ns:(int_of_float (float_of_int bytes *. p.cpu_ns_per_byte))
              ~bytes
        in
        while !pos < off + len do
          let chunk = min p.chunk_bytes (off + len - !pos) in
          A.nfs_read ctx ~bytes:chunk;
          Process.write th ~site:"grp.fill_buffer" (buf + (!pos - off))
            ~len:chunk;
          (match ctx.A.variant with
          | A.Baseline | A.Initial ->
              (* The scanner updates the global counter the moment it hits
                 each occurrence — mid-scan, so the counter page bounces
                 between nodes throughout the run. *)
              let first = lower_bound positions !pos in
              let stop = lower_bound positions (!pos + chunk) in
              let cursor = ref !pos in
              for m = first to stop - 1 do
                scan th (positions.(m) - !cursor);
                cursor := positions.(m);
                incr local_count;
                ignore
                  (Process.fetch_add th ~site:"grp.total_update" total_addr 1L);
                Process.store th ~site:"grp.args_update"
                  (args_addr + (i * args_stride))
                  (Int64.of_int !local_count)
              done;
              scan th (!pos + chunk - !cursor)
          | A.Optimized ->
              (* Locally staged counts: scan straight through. *)
              scan th chunk;
              local_count :=
                !local_count + matches_in positions ~off:!pos ~len:chunk);
          pos := !pos + chunk
        done;
        match ctx.A.variant with
        | A.Optimized ->
            (* Locally staged: one global update per thread. *)
            Process.store th ~site:"grp.args_update"
              (args_addr + (i * args_stride))
              (Int64.of_int !local_count);
            ignore
              (Process.fetch_add th ~site:"grp.total_update" total_addr
                 (Int64.of_int !local_count))
        | A.Baseline | A.Initial -> ()
      end);
  Process.load main total_addr

let run ~nodes ~variant ?config ?proto ?(params = default_params) ?(seed = 11) () =
  let positions = (oracle params ~seed).positions in
  A.run_app ~name:"GRP" ~nodes ~variant ?config ?proto ~seed (body params positions)

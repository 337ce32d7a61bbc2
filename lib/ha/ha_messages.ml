type Dex_net.Msg.payload +=
  | Repl_append of { epoch : int; first_seq : int; entries : Log_entry.t list }
  | Repl_ack of { watermark : int }
  | Repl_nack of { epoch : int }

let kind_repl = "repl_log"

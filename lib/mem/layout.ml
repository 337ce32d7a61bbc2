let mib = 1 lsl 20

let text_base = 0x0040_0000
let text_size = 2 * mib

let globals_base = 0x0060_0000
let globals_size = 64 * mib

let heap_base = 0x1000_0000
let heap_size = 4096 * mib

let max_threads = 512

let mmap_base = 0x7000_0000_0000
let mmap_zone_size = 65536 * mib

let stack_base = 0x7f00_0000_0000
let stack_slot_size = 16 * mib
let stack_size = 8 * mib

let check_tid tid =
  if tid < 0 || tid >= max_threads then invalid_arg "Layout: bad thread id"

let stack_for ~tid =
  check_tid tid;
  stack_base + (tid * stack_slot_size)

let stack_top ~tid = stack_for ~tid + stack_size

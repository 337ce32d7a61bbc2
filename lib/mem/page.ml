let size = 4096
let shift = 12

type addr = int
type vpn = int

let page_of_addr a = a asr shift
let base_of_page p = p lsl shift
let offset_in_page a = a land (size - 1)
let align_up a = (a + size - 1) land lnot (size - 1)
let is_aligned a = a land (size - 1) = 0

let pages_of_range addr ~len =
  if len <= 0 then invalid_arg "Page.pages_of_range: len must be positive";
  (page_of_addr addr, page_of_addr (addr + len - 1))

type access = Read | Write

type t = { read : bool; write : bool }

let rw = { read = true; write = true }
let ro = { read = true; write = false }
let none = { read = false; write = false }

let allows t = function Read -> t.read | Write -> t.write

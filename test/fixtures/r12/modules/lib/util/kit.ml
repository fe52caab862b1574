module type S = sig
  val name : string
end

module Packed = struct
  let name = "packed"
end

module Nested = struct
  let deep = 3
end

module Tbl = Hashtbl.Make (Int)

module Make (X : S) = struct
  let name = X.name ^ "!"
end

module Unused = struct
  let name = "unused"
end

module Own = struct
  let name = "own"
end

module Alias = Stdlib.List

let own_name = Own.name

module Kit = Fruitchain_util.Kit

module Loud = Kit.Make (struct
  let name = "loud"
end)

let run () =
  let (module P : Kit.S) = (module Kit.Packed) in
  let tbl = Kit.Tbl.create 4 in
  Kit.Tbl.replace tbl 1 Loud.name;
  String.length P.name + Kit.Nested.deep + Kit.Tbl.length tbl
  + String.length Kit.own_name

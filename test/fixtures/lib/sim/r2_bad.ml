(* R2 positive fixture: polymorphic compare in lib/sim (schedule order). *)
let a schedule = List.sort_uniq compare schedule
let b r round = r = round
let c heads = heads <> []
let d x y = x == y
let e x y = Stdlib.compare x y

(* R2 positive fixture: polymorphic compare in lib/adversary (strategy state). *)
let a config = config.protocol = Fruitchain
let b withheld = withheld <> []
let c x y = compare x y
let d x y = x == y
let e x y = Stdlib.compare x y

(* A test's use is no use: test/ is not among the linted roots. *)
let value = Fruitchain_util.Used.only_tests + Fruitchain_util.Used.hook

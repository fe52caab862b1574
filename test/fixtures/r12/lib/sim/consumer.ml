let run () =
  Fruitchain_util.Used.used_elsewhere 1
  + Fruitchain_util.Used.doubled_succ 2
  + Fruitchain_util.Extended.shared + Fruitchain_util.Extended.twice

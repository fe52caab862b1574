let () =
  print_int (Fruitchain_sim.Consumer.run () + List.length Fruitchain_experiments.Registry.all)

let () = print_int (Fruitchain_sim.User.run ())

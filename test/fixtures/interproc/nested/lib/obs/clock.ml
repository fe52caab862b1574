(* The blessed clock capability: allowed to read the wall clock. *)
let now_s () = Unix.gettimeofday ()
let cpu_s () = Sys.time ()

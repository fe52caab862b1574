(* Small timing and summary helpers. Every clock read goes through
   [Fruitchain_obs.Clock], the repository's one blessed clock. *)

module Clock = Fruitchain_obs.Clock

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let minimum xs = List.fold_left Float.min infinity xs
let maximum xs = List.fold_left Float.max neg_infinity xs

(* [f ()] and its wall time in seconds. *)
let timed f =
  let t0 = Clock.now_s () in
  let x = f () in
  (x, Clock.now_s () -. t0)

(* --- Host-speed normalization --------------------------------------------

   The 2-vCPU virtual machines this benchmark was defined on change speed
   by up to 2x within seconds: a fixed integer loop, timed back to back,
   took anywhere from 0.155 s to 0.307 s. Repetition cannot average that
   out, so every timed region is bracketed by a fixed kernel that calls
   none of the repository's code, and its wall time is scaled by the
   kernel's reference time over the kernel's measured time. The result is
   in seconds at the reference host speed; the raw wall time is kept
   beside it. *)

let kernel_table = Array.make 1_048_576 1

(* Integer work plus a strided walk over 8 MiB, so both the core's speed
   and memory latency are sampled. No allocation: the program's GC
   settings cannot move it. *)
let kernel () =
  let x = ref 0 in
  for i = 1 to 8_000_000 do
    x := !x lxor (i * 7)
  done;
  let j = ref 0 in
  for _ = 1 to 2_000_000 do
    x := !x + Array.unsafe_get kernel_table !j;
    j := (!j + 4099) land 1_048_575
  done;
  ignore (Sys.opaque_identity !x)

(* The kernel's time on an unloaded host of the reference machine. *)
let kernel_reference_s = 0.014

type host_timed = { raw_s : float; norm_s : float }

(* [f ()] with its raw wall time and its host-normalized time. *)
let host_timed f =
  let k0 = snd (timed kernel) in
  let x, raw_s = timed f in
  let k1 = snd (timed kernel) in
  (x, { raw_s; norm_s = raw_s *. kernel_reference_s /. ((k0 +. k1) /. 2.0) })

(* Words allocated by all domains, by the pitfall that
   [Gc.allocated_bytes] counts only the calling one. *)
let allocated_words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

type gc_delta = { alloc_mb : float; major_mb : float; major_collections : int }

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1_048_576.0

(* [f ()] with its wall time and what it cost the garbage collector. *)
let measured f =
  let s0 = Gc.quick_stat () in
  let x, wall = timed f in
  let s1 = Gc.quick_stat () in
  ( x,
    wall,
    {
      alloc_mb = mb_of_words (allocated_words s1 -. allocated_words s0);
      major_mb = mb_of_words (s1.major_words -. s0.major_words);
      major_collections = s1.major_collections - s0.major_collections;
    } )

(* Nanoseconds per call of [f]: the batch size is doubled until a batch
   takes 20 ms, then the median of seven batches is reported. *)
let ns_per_call f =
  let batch k =
    snd
      (timed (fun () ->
           for _ = 1 to k do
             ignore (Sys.opaque_identity (f ()))
           done))
  in
  let rec calibrate k = if k >= 1 lsl 24 || batch k >= 0.02 then k else calibrate (2 * k) in
  let k = calibrate 1 in
  median (List.init 7 (fun _ -> batch k /. float_of_int k)) *. 1e9

module Trace = Fruitchain_sim.Trace
module Rng = Fruitchain_util.Rng
module Stats = Fruitchain_util.Stats

type report = {
  committees : int;
  unsafe_committees : int;
  stalled_committees : int;
  total_slots : int;
  stalled_slots : int;
  mean_honest_fraction : float;
  min_honest_fraction : float;
}

let evaluate trace ~unit ~committee_size ~stride ~slots_per_committee ~seed =
  let committees = Committee.sliding trace ~unit ~size:committee_size ~stride in
  let rng = Rng.of_seed seed in
  let unsafe = ref 0 and stalled = ref 0 in
  let total_slots = ref 0 and stalled_slots = ref 0 in
  let fractions = Stats.create () in
  List.iter
    (fun committee ->
      Stats.add fractions (Committee.honest_fraction committee);
      let stats = Bft.run_slots ~rng ~committee ~slots:slots_per_committee in
      total_slots := !total_slots + stats.Bft.slots;
      stalled_slots := !stalled_slots + stats.Bft.liveness_failures;
      if stats.Bft.safety_violations > 0 then incr unsafe
      else if stats.Bft.liveness_failures > 0 then incr stalled)
    committees;
  {
    committees = List.length committees;
    unsafe_committees = !unsafe;
    stalled_committees = !stalled;
    total_slots = !total_slots;
    stalled_slots = !stalled_slots;
    mean_honest_fraction = Stats.mean fractions;
    min_honest_fraction = Stats.min_value fractions;
  }

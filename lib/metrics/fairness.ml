open Fruitchain_chain
module Trace = Fruitchain_sim.Trace
module Config = Fruitchain_sim.Config
module Extract = Fruitchain_core.Extract

let subset_flags_of_fruits fruits ~member =
  fruits
  |> List.filter_map (fun (f : Types.fruit) ->
         Option.map (fun (p : Types.provenance) -> member p.miner) f.f_prov)
  |> Array.of_list

let min_window_share flags ~window = Quality.worst_window_fraction flags ~window `Honest

type report = {
  phi : float;
  window : int;
  min_share : float;
  overall_share : float;
  fair_floor : float -> float;
}

let make_report ~config ~subset ~window flags =
  let config : Config.t = config in
  List.iter
    (fun i ->
      if Config.is_ever_corrupt config i then
        invalid_arg "Fairness: subset members must be honest parties")
    subset;
  let phi = float_of_int (List.length subset) /. float_of_int config.Config.n in
  let n = Array.length flags in
  let members = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 flags in
  {
    phi;
    window;
    min_share = min_window_share flags ~window;
    overall_share = (if n = 0 then nan else float_of_int members /. float_of_int n);
    fair_floor = (fun delta -> (1.0 -. delta) *. phi);
  }

let fruit_fairness trace ~subset ~window =
  let member i = List.mem i subset in
  let chain = Trace.honest_final_chain trace in
  let flags = subset_flags_of_fruits (Extract.fruits_of_chain chain) ~member in
  make_report ~config:(Trace.config trace) ~subset ~window flags

(* Hybrid-consensus committee election (S1.3): elect the miners of the most
   recent 60-unit chain segment as a BFT committee and check the >2/3
   honesty it needs, under a selfish-mining coalition, for both protocols.

   Run with: dune exec examples/committee.exe *)

module Config = Fruitchain_sim.Config
module Engine = Fruitchain_sim.Engine
module Trace = Fruitchain_sim.Trace
module Params = Fruitchain_core.Params
module Types = Fruitchain_chain.Types
module Extract = Fruitchain_core.Extract
module Runs = Fruitchain_experiments.Runs

let committee_size = 60
let rho = 0.30

let run protocol =
  let params = Params.make ~p:0.002 ~pf:0.02 ~kappa:8 ~recency_r:4 () in
  let config =
    Config.make ~protocol ~n:20 ~rho ~delta:2 ~rounds:60_000 ~seed:23L ~params ()
  in
  Engine.run ~config ~strategy:(Runs.selfish ~gamma:1.0) ()

let seats provs =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun (p : Types.provenance) ->
      let key = if p.honest then `Honest p.miner else `Adversary in
      Hashtbl.replace tally key (1 + Option.value ~default:0 (Hashtbl.find_opt tally key)))
    provs;
  tally

let describe name provs =
  let provs =
    let len = List.length provs in
    List.filteri (fun i _ -> i >= len - committee_size) provs
  in
  let tally = seats provs in
  let honest_seats =
    Hashtbl.fold (fun k v acc -> match k with `Honest _ -> acc + v | `Adversary -> acc) tally 0
  in
  let total = List.length provs in
  let frac = float_of_int honest_seats /. float_of_int total in
  Printf.printf "%-11s committee of %d seats: %d honest (%.1f%%) -> BFT needs >66.7%%: %s\n"
    name total honest_seats (100.0 *. frac)
    (if frac > 2.0 /. 3.0 then "OK" else "BROKEN");
  let members =
    Hashtbl.fold
      (fun k v acc ->
        match k with `Honest m -> (m, v) :: acc | `Adversary -> (-1, v) :: acc)
      tally []
    |> List.sort compare
  in
  List.iter
    (fun (m, v) ->
      if m < 0 then Printf.printf "    coalition: %d seats\n" v
      else Printf.printf "    party %2d:  %d seats\n" m v)
    members

let () =
  Printf.printf
    "electing the miners of the last %d chain units as a committee (rho=%.2f, selfish \
     gamma=1):\n\n"
    committee_size rho;
  let nak = run Config.Nakamoto in
  describe "Nakamoto" (List.filter_map (fun (b : Types.block) -> b.b_prov) (Trace.honest_final_chain nak));
  Printf.printf "\n";
  let fc = run Config.Fruitchain in
  describe "FruitChain"
    (List.filter_map
       (fun (f : Types.fruit) -> f.f_prov)
       (Extract.fruits_of_chain (Trace.honest_final_chain fc)));
  Printf.printf
    "\nsame power split, same attack: the Nakamoto-elected committee tips past the 1/3\n\
     corrupt bound while the fruit-elected one tracks the true power distribution.\n"

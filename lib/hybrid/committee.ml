open Fruitchain_chain
module Trace = Fruitchain_sim.Trace
module Extract = Fruitchain_core.Extract

type seat = Honest of int | Byzantine
type t = { seats : seat array; elected_at : int }

let size t = Array.length t.seats

let byzantine_seats t =
  Array.fold_left (fun acc s -> match s with Byzantine -> acc + 1 | Honest _ -> acc) 0 t.seats

let honest_fraction t =
  let n = size t in
  if n = 0 then nan else float_of_int (n - byzantine_seats t) /. float_of_int n

let seat_of_provenance (p : Types.provenance) =
  if p.honest then Honest p.miner else Byzantine

let provenance_sequence trace ~unit =
  let chain = Trace.honest_final_chain trace in
  match unit with
  | `Blocks -> List.filter_map (fun (b : Types.block) -> b.b_prov) chain
  | `Fruits -> List.filter_map (fun (f : Types.fruit) -> f.f_prov) (Extract.fruits_of_chain chain)

let sliding trace ~unit ~size ~stride =
  if size <= 0 || stride <= 0 then invalid_arg "Committee.sliding: size and stride must be positive";
  let provs = Array.of_list (provenance_sequence trace ~unit) in
  let n = Array.length provs in
  let rec go start acc =
    if start + size > n then List.rev acc
    else
      let seats = Array.init size (fun i -> seat_of_provenance provs.(start + i)) in
      go (start + stride) ({ seats; elected_at = start + size } :: acc)
  in
  go 0 []

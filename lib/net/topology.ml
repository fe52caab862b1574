module Rng = Fruitchain_util.Rng

type t = { adj : int list array }

let size t = Array.length t.adj

let degree_stats t =
  let n = size t in
  let total = ref 0 and max_d = ref 0 in
  Array.iter
    (fun ns ->
      let d = List.length ns in
      total := !total + d;
      if d > !max_d then max_d := d)
    t.adj;
  (float_of_int !total /. float_of_int n, !max_d)

let of_edge_set n edges =
  let adj = Array.make n [] in
  Hashtbl.iter
    (fun (a, b) () ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    edges;
  { adj = Array.map (List.sort_uniq Int.compare) adj }

let add_edge edges a b =
  if not (Int.equal a b) then begin
    let key = if a < b then (a, b) else (b, a) in
    Hashtbl.replace edges key ()
  end

let complete n =
  if n < 2 then invalid_arg "Topology.complete: need n >= 2";
  let edges = Hashtbl.create (n * n / 2) in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      add_edge edges a b
    done
  done;
  of_edge_set n edges

let ring n ~k =
  if k < 1 then invalid_arg "Topology.ring: k must be >= 1";
  if n <= 2 * k then invalid_arg "Topology.ring: need n > 2k";
  let edges = Hashtbl.create (n * k) in
  for a = 0 to n - 1 do
    for d = 1 to k do
      add_edge edges a ((a + d) mod n)
    done
  done;
  of_edge_set n edges

let erdos_renyi rng n ~avg_degree =
  if n < 3 then invalid_arg "Topology.erdos_renyi: need n >= 3";
  if avg_degree < 0.0 then invalid_arg "Topology.erdos_renyi: negative degree";
  let p = avg_degree /. float_of_int (n - 1) in
  let edges = Hashtbl.create (n * 4) in
  (* Ring backbone guarantees connectivity. *)
  for a = 0 to n - 1 do
    add_edge edges a ((a + 1) mod n)
  done;
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if Rng.bernoulli rng p then add_edge edges a b
    done
  done;
  of_edge_set n edges

(* BFS distances from [source]; -1 for unreachable. *)
let bfs t source =
  let n = size t in
  let dist = Array.make n (-1) in
  dist.(source) <- 0;
  let queue = Queue.create () in
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      t.adj.(u)
  done;
  dist

let eccentricity t source = Array.fold_left max 0 (bfs t source)

let diameter t =
  let n = size t in
  let worst = ref 0 in
  for source = 0 to n - 1 do
    let e = eccentricity t source in
    if e > !worst then worst := e
  done;
  !worst

type spread = { rounds_to_full : int; reached : int }

let flood t ~source ~per_hop_rounds =
  if per_hop_rounds < 1 then invalid_arg "Topology.flood: per_hop_rounds must be >= 1";
  let dist = bfs t source in
  let reached = Array.fold_left (fun acc d -> if d >= 0 then acc + 1 else acc) 0 dist in
  let max_hops = Array.fold_left max 0 dist in
  { rounds_to_full = max_hops * per_hop_rounds; reached }

let worst_case_delta t ~per_hop_rounds = diameter t * per_hop_rounds

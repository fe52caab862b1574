(* Deterministic metrics: named monotone counters, gauges and fixed-bucket
   integer histograms.

   Determinism contract: every golden instrument holds values that are a
   pure function of the work performed, never of the schedule.  Counters
   and histograms are merged by addition and gauges by last-writer-in-
   index-order, so merging per-worker registries in unit-index order
   (Pool.map) reproduces exactly what a sequential run accumulates in a
   single registry.  Histograms observe *integers* for the same reason:
   integer addition is associative and commutative, so the merge order
   cannot leak into the dump, whereas float accumulation would.

   Schedule-dependent telemetry (worker utilization, claim overshoot) is
   registered with ~golden:false and excluded from the default dump. *)

type counter = { mutable count : int; c_golden : bool }
type gauge = { mutable value : float; mutable touched : bool; g_golden : bool }

type histogram = {
  buckets : int array; (* upper bounds, strictly increasing *)
  counts : int array; (* length = Array.length buckets + 1 (overflow) *)
  mutable sum : int;
  h_golden : bool;
}

type instrument = C of counter | G of gauge | H of histogram
type t = (string, instrument) Hashtbl.t

let create () : t = Hashtbl.create 32

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let mismatch name existing wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered as a %s, not a %s" name
       (kind_name existing) wanted)

let counter t ?(golden = true) name =
  match Hashtbl.find_opt t name with
  | Some (C c) -> c
  | Some other -> mismatch name other "counter"
  | None ->
      let c = { count = 0; c_golden = golden } in
      Hashtbl.replace t name (C c);
      c

let incr ?(by = 1) c = c.count <- c.count + by

let gauge t ?(golden = true) name =
  match Hashtbl.find_opt t name with
  | Some (G g) -> g
  | Some other -> mismatch name other "gauge"
  | None ->
      let g = { value = 0.0; touched = false; g_golden = golden } in
      Hashtbl.replace t name (G g);
      g

let set g v =
  g.value <- v;
  g.touched <- true

let histogram t ?(golden = true) ~buckets name =
  (match Hashtbl.find_opt t name with
  | Some (H h) ->
      if Array.length h.buckets <> Array.length buckets
         || not (Array.for_all2 Int.equal h.buckets buckets)
      then invalid_arg ("Metrics: histogram " ^ name ^ " re-registered with different buckets")
  | Some other -> ignore (mismatch name other "histogram")
  | None ->
      if Array.length buckets = 0 then
        invalid_arg ("Metrics: histogram " ^ name ^ " needs at least one bucket");
      Array.iteri
        (fun i b ->
          if i > 0 && b <= buckets.(i - 1) then
            invalid_arg ("Metrics: histogram " ^ name ^ " buckets must be strictly increasing"))
        buckets;
      Hashtbl.replace t name
        (H
           {
             buckets = Array.copy buckets;
             counts = Array.make (Array.length buckets + 1) 0;
             sum = 0;
             h_golden = golden;
           }));
  match Hashtbl.find_opt t name with
  | Some (H h) -> h
  | Some _ | None -> assert false

let observe h v =
  let nb = Array.length h.buckets in
  let rec slot i = if i >= nb then nb else if v <= h.buckets.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum + v

let observe_many h v ~count =
  if count < 0 then invalid_arg "Metrics.observe_many: negative count";
  if count > 0 then begin
    let nb = Array.length h.buckets in
    let rec slot i = if i >= nb then nb else if v <= h.buckets.(i) then i else slot (i + 1) in
    let i = slot 0 in
    h.counts.(i) <- h.counts.(i) + count;
    h.sum <- h.sum + (v * count)
  end

let histogram_count h = Array.fold_left ( + ) 0 h.counts

(* Nearest-rank quantile over the deterministic bucket counts: the upper
   bound of the bucket holding the q-th percentile observation. [None]
   for an empty histogram or when the rank lands in the unbounded
   overflow bucket — the dump prints those as null rather than invent a
   bound. *)
let histogram_quantile h q =
  if q < 0 || q > 100 then invalid_arg "Metrics.histogram_quantile: q must be in [0,100]";
  let total = histogram_count h in
  if total = 0 then None
  else begin
    let rank = max 1 (((q * total) + 99) / 100) in
    let nb = Array.length h.buckets in
    let rec walk i acc =
      if i >= nb then None
      else
        let acc = acc + h.counts.(i) in
        if acc >= rank then Some h.buckets.(i) else walk (i + 1) acc
    in
    walk 0 0
  end

let get_counter t name =
  match Hashtbl.find_opt t name with Some (C c) -> Some c.count | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Merge.  [merge_into ~dst src] folds one registry into another; the
   caller is responsible for applying children in unit-index order so
   that gauge last-writer-wins matches the sequential execution. *)

let sorted_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t [] |> List.sort String.compare

let merge_into ~dst src =
  List.iter
    (fun name ->
      match Hashtbl.find_opt src name with
      | None -> ()
      | Some (C c) ->
          let d = counter dst ~golden:c.c_golden name in
          d.count <- d.count + c.count
      | Some (G g) ->
          let d = gauge dst ~golden:g.g_golden name in
          if g.touched then set d g.value
      | Some (H h) ->
          let d = histogram dst ~golden:h.h_golden ~buckets:h.buckets name in
          Array.iteri (fun i c -> d.counts.(i) <- d.counts.(i) + c) h.counts;
          d.sum <- d.sum + h.sum)
    (sorted_names src)

(* ------------------------------------------------------------------ *)
(* Dump: canonical JSON, instruments sorted by name, golden-only unless
   [~all:true].  This is the byte-compared artifact. *)

let to_json ?(all = false) t =
  let keep golden = all || golden in
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t name with
      | None -> ()
      | Some (C c) -> if keep c.c_golden then counters := (name, Json.Int c.count) :: !counters
      | Some (G g) ->
          if keep g.g_golden then gauges := (name, Json.Float g.value) :: !gauges
      | Some (H h) ->
          if keep h.h_golden then begin
            let quantile q =
              match histogram_quantile h q with
              | Some v -> Json.Int v
              | None -> Json.Null
            in
            histograms :=
              ( name,
                Json.Obj
                  [
                    ("buckets", Json.List (Array.to_list (Array.map (fun b -> Json.Int b) h.buckets)));
                    ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)));
                    ("count", Json.Int (histogram_count h));
                    ("sum", Json.Int h.sum);
                    ("p50", quantile 50);
                    ("p95", quantile 95);
                    ("p99", quantile 99);
                  ] )
              :: !histograms
          end)
    (List.rev (sorted_names t));
  Json.Obj
    [
      ("counters", Json.Obj !counters);
      ("gauges", Json.Obj !gauges);
      ("histograms", Json.Obj !histograms);
    ]

let dump ?all t = Json.to_string (to_json ?all t)

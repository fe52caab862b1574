(* Walker/Vose alias method. Construction partitions the normalized
   weights into "small" (below average) and "large" (at least average)
   work lists and pairs each small cell with a large donor; processing
   both lists in ascending index order makes the table a pure function of
   the weight vector, which the determinism suite relies on. *)

type t = {
  prob : float array;  (* acceptance probability of the cell's own index *)
  alias : int array;   (* donor index used when the cell rejects *)
  (* No cell started small, so none was paired and every [prob] is 1.0:
     every cell accepts (uniform power, the sparse plane's table). *)
  accepts_all : bool;
}

let create weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Alias.create: empty weight vector";
  let total = ref 0.0 in
  Array.iter
    (fun w ->
      if not (Float.is_finite w) || w < 0.0 then
        invalid_arg "Alias.create: weights must be finite and non-negative";
      total := !total +. w)
    weights;
  if not (!total > 0.0) then invalid_arg "Alias.create: all weights are zero";
  (* Scaled weights: average cell mass is exactly 1. *)
  let scaled = Array.map (fun w -> w /. !total *. float_of_int n) weights in
  let prob = Array.make n 1.0 in
  let alias = Array.init n (fun i -> i) in
  let small = Array.make n 0 and large = Array.make n 0 in
  let ns = ref 0 and nl = ref 0 in
  for i = 0 to n - 1 do
    if scaled.(i) < 1.0 then begin
      small.(!ns) <- i;
      incr ns
    end
    else begin
      large.(!nl) <- i;
      incr nl
    end
  done;
  let accepts_all = Int.equal !ns 0 in
  (* The work lists behave as stacks; both were filled in ascending index
     order, so the pairing below is deterministic. *)
  while !ns > 0 && !nl > 0 do
    decr ns;
    let s = small.(!ns) in
    let l = large.(!nl - 1) in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) -. (1.0 -. scaled.(s));
    if scaled.(l) < 1.0 then begin
      decr nl;
      small.(!ns) <- l;
      incr ns
    end
  done;
  (* Leftovers (either list) are cells of mass 1 up to rounding. *)
  while !ns > 0 do
    decr ns;
    prob.(small.(!ns)) <- 1.0
  done;
  while !nl > 0 do
    decr nl;
    prob.(large.(!nl)) <- 1.0
  done;
  { prob; alias; accepts_all }

(* When every cell accepts, the acceptance draw is taken and not compared:
   a uniform float in [0, 1) is always below 1.0, and at n = 10^5 reading
   [prob.(i)] is a cache miss per sample. *)
let sample t rng =
  let i = Rng.int rng (Array.length t.prob) in
  if t.accepts_all then begin
    Rng.draw rng;
    i
  end
  else if Rng.float rng < t.prob.(i) then i
  else t.alias.(i)

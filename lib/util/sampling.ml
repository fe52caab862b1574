let geometric g p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Sampling.geometric: need 0 < p <= 1";
  if p = 1.0 then 0
  else
    (* Inversion: floor(log(U) / log(1-p)) has the geometric distribution. *)
    let u = 1.0 -. Rng.float g in
    int_of_float (Float.floor (Float.log u /. Float.log (1.0 -. p)))

(* Box–Muller. *)
let normal g ~mean ~std =
  let u1 = 1.0 -. Rng.float g and u2 = Rng.float g in
  let r = Float.sqrt (-2.0 *. Float.log u1) in
  mean +. (std *. r *. Float.cos (2.0 *. Float.pi *. u2))

let binomial g n p =
  if n < 0 then invalid_arg "Sampling.binomial: negative n";
  if p <= 0.0 then 0
  else if p >= 1.0 then n
  else
    let variance = float_of_int n *. p *. (1.0 -. p) in
    if variance > 100.0 then begin
      let x = normal g ~mean:(float_of_int n *. p) ~std:(Float.sqrt variance) in
      let k = int_of_float (Float.round x) in
      if k < 0 then 0 else if k > n then n else k
    end
    else if float_of_int n *. p < 32.0 then begin
      (* Waiting-time method: skip from success to success with geometric
         gaps; cost is O(np), cheap in this regime. *)
      let count = ref 0 and i = ref (geometric g p) in
      while !i < n do
        incr count;
        i := !i + 1 + geometric g p
      done;
      !count
    end
    else begin
      let count = ref 0 in
      for _ = 1 to n do
        if Rng.bernoulli g p then incr count
      done;
      !count
    end

let binomial_pos g n p =
  if n <= 0 then invalid_arg "Sampling.binomial_pos: need n > 0";
  if p <= 0.0 then invalid_arg "Sampling.binomial_pos: need p > 0";
  if p >= 1.0 then n
  else begin
    (* Condition on >= 1 success by first-success decomposition: the index
       J of the first success among the n trials is a geometric truncated
       to [0, n-1] (sampled by inverting its CDF restricted to that range),
       and the trials after it are unconditioned. *)
    let q = 1.0 -. p in
    (* 1 - q^n, computed without cancellation for tiny n·p. *)
    let tail = -.Float.expm1 (float_of_int n *. Float.log1p (-.p)) in
    let u = Rng.float g in
    let j =
      int_of_float (Float.floor (Float.log1p (-.(u *. tail)) /. Float.log q))
    in
    let j = if j < 0 then 0 else if j > n - 1 then n - 1 else j in
    1 + binomial g (n - j - 1) p
  end

let exponential g rate =
  if rate <= 0.0 then invalid_arg "Sampling.exponential: rate must be positive";
  -.Float.log (1.0 -. Rng.float g) /. rate

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

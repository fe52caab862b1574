type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
}

let create () = { n = 0; mean = 0.0; m2 = 0.0; min_v = infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x

let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
let std t = Float.sqrt (variance t)
let min_value t = if t.n = 0 then nan else t.min_v

let coefficient_of_variation t =
  let m = mean t in
  if t.n < 2 || m = 0.0 then nan else std t /. m

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
    in
    { n; mean; m2; min_v = Float.min a.min_v b.min_v }
  end

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let of_array xs =
  let t = create () in
  Array.iter (add t) xs;
  t

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty array";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let w = pos -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))

let gini xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.gini: empty array";
  Array.iter
    (fun x -> if x < 0.0 then invalid_arg "Stats.gini: negative value")
    xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let total = Array.fold_left ( +. ) 0.0 sorted in
  if total = 0.0 then 0.0
  else begin
    (* G = (2 Σ_i i·x_(i) / (n Σ x)) - (n+1)/n with 1-based ranks over the
       sorted values. *)
    let weighted = ref 0.0 in
    Array.iteri (fun i x -> weighted := !weighted +. (float_of_int (i + 1) *. x)) sorted;
    (2.0 *. !weighted /. (float_of_int n *. total))
    -. (float_of_int (n + 1) /. float_of_int n)
  end

module Histogram = struct
  type nonrec t = { lo : float; hi : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~bins =
    if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
    if not (hi > lo) then invalid_arg "Histogram.create: need hi > lo";
    { lo; hi; counts = Array.make bins 0; total = 0 }

  let add t x =
    let bins = Array.length t.counts in
    let raw = (x -. t.lo) /. (t.hi -. t.lo) *. float_of_int bins in
    let i = int_of_float (Float.floor raw) in
    let i = if i < 0 then 0 else if i >= bins then bins - 1 else i in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let counts t = Array.copy t.counts
  let total t = t.total

  let bin_mid t i =
    let bins = Array.length t.counts in
    t.lo +. ((float_of_int i +. 0.5) *. (t.hi -. t.lo) /. float_of_int bins)

  let pp fmt t =
    let max_count = Array.fold_left max 1 t.counts in
    Array.iteri
      (fun i c ->
        let bar_len = c * 50 / max_count in
        Format.fprintf fmt "%10.3f | %-50s %d@." (bin_mid t i) (String.make bar_len '#') c)
      t.counts
end

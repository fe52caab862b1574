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

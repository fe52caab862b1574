type t = { p : float; pf : float; kappa : int; recency_r : int; enforce_recency : bool }

let make ?(recency_r = 17) ?(enforce_recency = true) ~p ~pf ~kappa () =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Params.make: p out of (0, 1]";
  if not (pf > 0.0 && pf <= 1.0) then invalid_arg "Params.make: pf out of (0, 1]";
  if kappa <= 0 then invalid_arg "Params.make: kappa must be positive";
  if recency_r <= 0 then invalid_arg "Params.make: recency_r must be positive";
  { p; pf; kappa; recency_r; enforce_recency }

let recency_window t = t.recency_r * t.kappa
let pointer_depth t = t.kappa
let q t = t.pf /. t.p

let pp fmt t =
  Format.fprintf fmt "p=%g pf=%g kappa=%d R=%d (window=%d, q=%g)" t.p t.pf t.kappa t.recency_r
    (recency_window t) (q t)

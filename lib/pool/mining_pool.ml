module Rng = Fruitchain_util.Rng
module Stats = Fruitchain_util.Stats

type scheme = Solo | Proportional of { fee : float } | Pay_per_share of { fee : float }

let scheme_name = function
  | Solo -> "solo"
  | Proportional { fee } -> Printf.sprintf "proportional(fee=%g)" fee
  | Pay_per_share { fee } -> Printf.sprintf "pay-per-share(fee=%g)" fee

type member_stats = {
  payments : int;
  total : float;
  time_to_first : float;
  income_cv : float;
}

type outcome = {
  members : member_stats array;
  operator_income : float;
  operator_cv : float;
  blocks : int;
  shares : int;
}

type accounting = {
  m : int;
  slices : int;
  rounds : int;
  slice_income : float array array; (* member -> slice *)
  operator_slices : float array;
  payments : int array;
  first_payment : float array;
  total : float array;
}

let make_accounting ~m ~slices ~rounds =
  {
    m;
    slices;
    rounds;
    slice_income = Array.init m (fun _ -> Array.make slices 0.0);
    operator_slices = Array.make slices 0.0;
    payments = Array.make m 0;
    first_payment = Array.make m nan;
    total = Array.make m 0.0;
  }

let slice_of acc round = min (acc.slices - 1) (round * acc.slices / acc.rounds)

let pay acc ~member ~round amount =
  if amount > 0.0 then begin
    acc.slice_income.(member).(slice_of acc round) <-
      acc.slice_income.(member).(slice_of acc round) +. amount;
    acc.total.(member) <- acc.total.(member) +. amount;
    acc.payments.(member) <- acc.payments.(member) + 1;
    if Float.is_nan acc.first_payment.(member) then
      acc.first_payment.(member) <- float_of_int round
  end

let pay_operator acc ~round amount =
  acc.operator_slices.(slice_of acc round) <- acc.operator_slices.(slice_of acc round) +. amount

let finalize acc ~blocks ~shares =
  let members =
    Array.init acc.m (fun i ->
        {
          payments = acc.payments.(i);
          total = acc.total.(i);
          time_to_first = acc.first_payment.(i);
          income_cv = Stats.coefficient_of_variation (Stats.of_array acc.slice_income.(i));
        })
  in
  {
    members;
    operator_income = Array.fold_left ( +. ) 0.0 acc.operator_slices;
    operator_cv = Stats.coefficient_of_variation (Stats.of_array acc.operator_slices);
    blocks;
    shares;
  }

let simulate ~rng ~scheme ~member_power ~p_block ~share_ratio ~rounds ~block_reward ~slices =
  let m = Array.length member_power in
  if m = 0 then invalid_arg "Mining_pool.simulate: no members";
  if p_block <= 0.0 || p_block > 1.0 then invalid_arg "Mining_pool.simulate: p_block out of range";
  if share_ratio < 1.0 then invalid_arg "Mining_pool.simulate: share_ratio must be >= 1";
  Array.iter
    (fun w ->
      if w < 0.0 || w *. p_block *. share_ratio > 1.0 then
        invalid_arg "Mining_pool.simulate: member power out of range")
    member_power;
  if rounds <= 0 || slices <= 0 then
    invalid_arg "Mining_pool.simulate: rounds/slices must be positive";
  let acc = make_accounting ~m ~slices ~rounds in
  let blocks = ref 0 and shares = ref 0 in
  (* Proportional bookkeeping: shares per member since the last pool block. *)
  let open_shares = Array.make m 0 in
  let share_value = block_reward /. share_ratio in
  for round = 0 to rounds - 1 do
    for i = 0 to m - 1 do
      (* A share arrives at rate w * p_block * share_ratio; each share is a
         full solution with probability 1/share_ratio — the nested
         thresholds of real share mining. *)
      let p_share_i = member_power.(i) *. p_block *. share_ratio in
      if Rng.bernoulli rng p_share_i then begin
        incr shares;
        let is_block = Rng.bernoulli rng (1.0 /. share_ratio) in
        match scheme with
        | Solo ->
            (* Shares are worthless outside a pool; only blocks pay. *)
            if is_block then begin
              incr blocks;
              pay acc ~member:i ~round block_reward
            end
        | Pay_per_share { fee } ->
            (* Immediate expected-value payout; the operator banks blocks. *)
            pay acc ~member:i ~round (share_value *. (1.0 -. fee));
            pay_operator acc ~round (-.share_value *. (1.0 -. fee));
            if is_block then begin
              incr blocks;
              pay_operator acc ~round block_reward
            end
        | Proportional { fee } ->
            open_shares.(i) <- open_shares.(i) + 1;
            if is_block then begin
              incr blocks;
              let total_shares = Array.fold_left ( + ) 0 open_shares in
              let pot = block_reward *. (1.0 -. fee) in
              pay_operator acc ~round (block_reward *. fee);
              for j = 0 to m - 1 do
                if open_shares.(j) > 0 then
                  pay acc ~member:j ~round
                    (pot *. float_of_int open_shares.(j) /. float_of_int total_shares)
              done;
              Array.fill open_shares 0 m 0
            end
      end
    done
  done;
  finalize acc ~blocks:!blocks ~shares:!shares

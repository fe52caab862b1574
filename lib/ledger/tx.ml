module Sampling = Fruitchain_util.Sampling

type t = { id : string; fee : float }

let encode t = Printf.sprintf "tx:%s:%.6f" t.id t.fee

let decode record =
  match String.split_on_char ':' record with
  | [ "tx"; id; fee ] -> (
      match float_of_string_opt fee with
      | Some fee when fee >= 0.0 -> Some { id; fee }
      | Some _ | None -> None)
  | _ -> None

module Workload = struct
  type nonrec t = round:int -> party:int -> string

  (* Transactions behave like mempool entries: the active transaction is
     offered to every party (the next successful miner confirms it and, by
     first-occurrence crediting, collects its fee) until it is replaced by
     the next one. Fees are drawn lazily per interval and memoized so the
     workload is a pure function of the round. *)
  let interval ~rng ~every ~mean_fee : t =
    if every <= 0 then invalid_arg "Tx.Workload.interval: every must be positive";
    let memo = Hashtbl.create 256 in
    let record_for slot =
      match Hashtbl.find_opt memo slot with
      | Some r -> r
      | None ->
          let fee = Sampling.exponential rng (1.0 /. mean_fee) in
          let r = encode { id = Printf.sprintf "%d" slot; fee } in
          Hashtbl.replace memo slot r;
          r
    in
    fun ~round ~party:_ -> record_for (round / every)

  let with_whales ~rng ~every ~mean_fee ~whale_every ~whale_fee : t =
    if whale_every <= 0 then invalid_arg "Tx.Workload.with_whales: whale_every must be positive";
    let base = interval ~rng ~every ~mean_fee in
    fun ~round ~party ->
      let slot = round / every in
      if slot > 0 && slot mod whale_every = 0 then
        encode { id = Printf.sprintf "whale%d" slot; fee = whale_fee }
      else base ~round ~party
end

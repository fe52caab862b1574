open Fruitchain_chain
module Hash = Fruitchain_crypto.Hash

let fruits_of_chain chain =
  let seen = Hash.Tbl.create 256 in
  let out = ref [] in
  List.iter
    (fun (b : Types.block) ->
      List.iter
        (fun (f : Types.fruit) ->
          if not (Hash.Tbl.mem seen f.f_hash) then begin
            Hash.Tbl.replace seen f.f_hash ();
            out := f :: !out
          end)
        b.fruits)
    chain;
  List.rev !out

(* Resolve the head hash once and walk ids: keeps this entry point total
   (R10).  An unknown head yields the empty chain — extraction is a pure
   function of what the store actually contains. *)
let fruits store ~head =
  match Store.find_id store head with
  | None -> []
  | Some i -> fruits_of_chain (Store.to_list_id store ~head:i)

let records fruit_list =
  List.filter_map
    (fun (f : Types.fruit) ->
      if Int.equal (String.length f.f_header.record) 0 then None else Some f.f_header.record)
    fruit_list

let ledger_of_chain chain = records (fruits_of_chain chain)
let ledger store ~head = records (fruits store ~head)

open Fruitchain_chain

type payload =
  | Chain_announce of { blocks : Types.block list; head : Types.Hash.t }
  | Fruit_announce of Types.fruit

type t = { sender : int; sent_at : int; priority : int; relay : bool; payload : payload }

let adversary_sender = -1
let honest_priority = 10
let rushed_priority = 0

let chain_announce ~sender ~sent_at ?(priority = honest_priority) ?(relay = false) ~blocks
    ~head () =
  { sender; sent_at; priority; relay; payload = Chain_announce { blocks; head } }

let fruit_announce ~sender ~sent_at ?(priority = honest_priority) ?(relay = false) fruit =
  { sender; sent_at; priority; relay; payload = Fruit_announce fruit }

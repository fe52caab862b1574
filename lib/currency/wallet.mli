(** A deterministic hierarchical wallet over one-time Lamport keys.

    Every payment consumes the spending key entirely, so the wallet derives
    a fresh key per address from a master seed and keeps a ledger-checked
    notion of which of its addresses currently hold funds. [pay] builds a
    full-spend transfer with change to the wallet's next fresh address —
    the UTXO discipline Lamport keys force. *)

module Hash = Fruitchain_crypto.Hash
module Lamport = Fruitchain_crypto.Lamport

type t

val create : seed:string -> t

val fresh_address : t -> Hash.t
(** Derive (and remember) the next receive address. *)

val balance : t -> State.t -> int64
(** Total across this wallet's addresses, per the given state. *)

type payment_error =
  | No_funded_address  (** Nothing to spend. *)
  | Insufficient of { available : int64 }

val pay :
  t -> State.t -> to_:Hash.t -> amount:int64 -> (Transfer.t, payment_error) result
(** Spend the wallet's richest funded address in full: [amount] to [to_],
    change (if any) to a fresh address of this wallet. The transfer still
    has to be submitted as a record and confirmed before the state
    reflects it. *)

(** Currency state: balances by address, derived deterministically from a
    fruit ledger.

    Minting follows the paper's reward story: every in-ledger fruit mints
    [reward] to its miner's address (supplied by an address book, since
    provenance records party ids). Transfers are applied in ledger order;
    an invalid transfer (bad signature, unknown or emptied sender, wrong
    total, reused key) is skipped exactly as a full node would skip an
    unparseable record — consensus orders records, the application layer
    interprets them. *)

module Hash = Fruitchain_crypto.Hash
open Fruitchain_chain

type t

val create : unit -> t

val balance : t -> Hash.t -> int64
val spent : t -> Hash.t -> bool
(** Has this address's one-time key already been used? *)

val total_supply : t -> int64

(* fruitlint: allow R12 test_currency "mint and balance", "pay with change" *)
val mint : t -> Hash.t -> int64 -> unit
(** Credit freshly created coins (coinbase). Raises [Invalid_argument] on
    non-positive amounts or minting to a spent address. *)

type rejection =
  | Bad_signature
  | Unknown_sender  (** No balance at the sender address. *)
  | Key_reused  (** The address already spent (Lamport safety). *)
  | Wrong_total  (** Outputs do not sum to the sender's full balance. *)
  | Spent_recipient  (** An output pays an address whose key is burned. *)

(* fruitlint: allow R12 test_currency "apply happy path", "double spend" *)
val apply : t -> Transfer.t -> (unit, rejection) result
(** Validate and apply one transfer atomically. *)

val apply_ledger :
  t -> miner_address:(Types.provenance -> Hash.t) -> reward:int64 -> Types.fruit list ->
  int * int
(** Replay an extracted fruit ledger: mint [reward] per provenance-stamped
    fruit to its miner's coinbase address — addressing sees the full
    provenance so miners can rotate addresses over time, which spend-all
    transfers require (an address being spent must stop receiving
    coinbase) — then apply the fruit's record if it decodes as a transfer.
    Returns [(applied, rejected)] transfer counts. Coinbase destined for an
    already-burned address is dropped (miner's loss, as with a malformed
    coinbase output). *)

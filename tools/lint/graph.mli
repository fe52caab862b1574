(** Whole-program value-level def/use graph over parsed compilation
    units, feeding {!Effects} and the interprocedural rules R8–R10.

    Purely syntactic (no typing pass): every top-level [let] and module
    declaration becomes a node; free identifiers in binding bodies become
    occurrences, resolved across units through dune's wrapped-library
    naming scheme ([lib/util/rng.ml] defines [Fruitchain_util.Rng]).
    [open], module aliases, [include] and functor applications are
    resolved; functors are treated conservatively.  Soundness caveats are
    documented in DESIGN.md §13. *)

type target = T_def of int | T_mod of int

type occ = {
  o_lid : Longident.t option;  (** [None] for an [assert] occurrence *)
  o_line : int;
  o_col : int;
  o_guarded : bool;  (** syntactically under a [try] body *)
  mutable o_target : target option;  (** resolved referent, if any *)
}

type def = {
  d_id : int;
  d_name : string;  (** fully qualified, e.g. ["Fruitchain_util.Rng.split"] *)
  d_mod : int;  (** the enclosing module's node *)
  d_file : string;
  d_line : int;
  d_col : int;
  d_in_functor : bool;
  d_mut_alloc : bool;  (** RHS allocates module-level mutable state *)
  mutable d_mutated : bool;  (** some resolved site syntactically mutates it *)
  mutable d_occs : occ list;
}

type mod_kind =
  | M_plain  (** [struct ... end] (or a functor body, see [m_is_functor]) *)
  | M_library  (** synthetic wrapper node, e.g. [Fruitchain_util] *)
  | M_alias  (** [module R = Rng] *)
  | M_app  (** functor application / unpack: members are opaque *)

type mnode = {
  m_id : int;
  m_name : string;
  m_file : string;
  m_line : int;
  m_col : int;
  m_kind : mod_kind;
  m_is_functor : bool;
  m_parent : int option;
  mutable m_alias_target : int option;
  mutable m_func_target : int option;
  mutable m_includes : int list;
  mutable m_occs : occ list;  (** functor-application arguments, unpacks *)
  m_values : (string, int) Hashtbl.t;
  m_mods : (string, int) Hashtbl.t;
}

type pool_site = {
  p_file : string;
  p_line : int;
  p_col : int;
  p_callee : string;  (** e.g. ["Pool.map"], ["Runs.run_parallel"] *)
  p_captured : occ list;
      (** every resolved free identifier of the call's argument
          expressions — the closures that become work units and the
          values they close over *)
}

type t = {
  g_defs : def array;
  g_mods : mnode array;
  g_pool_sites : pool_site list;
}

val components : string -> string list
(** Path components, tolerant of [\\] separators and [.]/[..] segments. *)

val flatten : Longident.t -> string list
(** [Longident.flatten] that returns [[]] instead of raising. *)

val strip_stdlib : string list -> string list
(** Drop a leading ["Stdlib"] from a qualified path. *)

val unit_of_file : string -> [ `Lib of string * string | `Standalone of string * string ]
(** Wrapped-library addressing for a file path: [`Lib (wrapper, unit)]
    for [lib/<dir>/<file>.ml] (scoped on the {e last} ["lib"] component,
    so fixture trees resolve like the real tree), [`Standalone] (keyed on
    the path, never referenceable from other units) otherwise. *)

val build : (string * Parsetree.structure) list -> t
(** Build the graph for a set of parsed [.ml] units: skeleton pass,
    module-resolution fixpoint (aliases, includes, functor heads), then a
    body walk collecting occurrences, mutation sites and pool call
    sites. *)

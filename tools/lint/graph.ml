(* Whole-program value-level def/use graph over a set of parsed
   compilation units, feeding the effect-inference fixpoint (Effects) and
   the interprocedural rules R8-R10.

   The graph is purely syntactic (no typing pass): each top-level [let]
   binding and each module declaration becomes a node; every free
   identifier in a binding's right-hand side becomes an occurrence,
   resolved against the other units through the same wrapped-library
   naming scheme dune uses ([lib/util/rng.ml] defines
   [Fruitchain_util.Rng]). Resolution understands [open], module aliases
   ([module R = Rng]), [include] re-exports and functor applications;
   functor bodies and applications are treated conservatively (an
   application carries the union of the functor body's and the argument's
   effects, because without types we cannot match members through the
   signature).

   What the resolver deliberately does not see, documented as soundness
   caveats in DESIGN.md section 13:
   - first-class closures flowing through data structures (a work-unit
     list built in one binding and consumed in another is tracked only at
     the consuming call site's own identifiers);
   - mutation through a parameter alias ([let bump r = incr r] does not
     mark the bindings later passed as [r]);
   - locally redefined stdlib names (a local [module Random = ...] still
     classifies as the stdlib primitive). *)

module SS = Set.Make (String)

type target = T_def of int | T_mod of int

(* One free-identifier (or [assert]) occurrence in a definition body. *)
type occ = {
  o_lid : Longident.t option; (* [None] for an [assert] *)
  o_line : int;
  o_col : int;
  o_guarded : bool; (* syntactically under a [try] body *)
  mutable o_target : target option;
}

type def = {
  d_id : int;
  d_name : string; (* fully qualified, e.g. "Fruitchain_util.Rng.split" *)
  d_mod : int; (* the enclosing module's node *)
  d_file : string;
  d_line : int;
  d_col : int;
  d_in_functor : bool;
  d_mut_alloc : bool; (* RHS allocates module-level mutable state *)
  mutable d_mutated : bool; (* some resolved site syntactically mutates it *)
  mutable d_occs : occ list;
}

type mod_kind =
  | M_plain (* [struct ... end] (or a functor body: [m_is_functor]) *)
  | M_library (* synthetic wrapper node, e.g. [Fruitchain_util] *)
  | M_alias (* [module R = Rng] *)
  | M_app (* functor application / unpack: members are opaque *)

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
  mutable m_occs : occ list; (* functor-application arguments, unpacks *)
  m_values : (string, int) Hashtbl.t;
  m_mods : (string, int) Hashtbl.t;
}

(* A call site whose callee is one of the deterministic-pool entry points
   ([Pool.map], [Runs.run_parallel]): [p_captured] holds
   every resolved free identifier of the argument expressions — the
   closures that become work units and the values they close over. *)
type pool_site = {
  p_file : string;
  p_line : int;
  p_col : int;
  p_callee : string;
  p_captured : occ list;
}

type t = {
  g_defs : def array;
  g_mods : mnode array;
  g_pool_sites : pool_site list;
}

(* ------------------------------------------------------------------ *)
(* Helpers shared with the per-file pass (duplicated from Lint to keep
   the dependency direction Graph <- Effects <- Lint acyclic). *)

let components path =
  String.split_on_char '/' path
  |> List.concat_map (String.split_on_char '\\')
  |> List.filter (fun s ->
         not (String.equal s "" || String.equal s "." || String.equal s ".."))

let flatten lid = try Longident.flatten lid with _ -> []
let strip_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | l -> l
let lid_name lid = String.concat "." (flatten lid)

(* [lib/<dir>/<file>.ml] defines [Fruitchain_<dir>.<File>]; anything else
   (bin/, bench/, tools/) is a standalone executable unit that other
   files can never reference, keyed by its path. *)
let unit_of_file file =
  let cs = components file in
  let modname base = String.capitalize_ascii (Filename.chop_suffix base ".ml") in
  let rec last_lib acc = function
    | "lib" :: ((_ :: _ :: _) as rest) -> last_lib (Some rest) rest
    | _ :: rest -> last_lib acc rest
    | [] -> acc
  in
  match last_lib None cs with
  | Some [ dir; base ] when Filename.check_suffix base ".ml" ->
      `Lib ("Fruitchain_" ^ dir, modname base)
  | _ -> (
      match List.rev cs with
      | base :: _ when Filename.check_suffix base ".ml" -> `Standalone ("%" ^ file, modname base)
      | _ -> `Standalone ("%" ^ file, "Unit"))

(* ------------------------------------------------------------------ *)
(* Builder state. *)

type cx = {
  cx_mod : int;
  cx_opens : Longident.t list; (* innermost first, unresolved *)
  cx_blocked : SS.t; (* module names shadowed by functor params etc. *)
}

type builder = {
  defs_tbl : (int, def) Hashtbl.t;
  mutable ndefs : int;
  mods_tbl : (int, mnode) Hashtbl.t;
  mutable nmods : int;
  roots : (string, int) Hashtbl.t;
  mutable pend_alias : (int * Longident.t * cx) list;
  mutable pend_func : (int * Longident.t * cx) list;
  mutable pend_incl : (int * Longident.t * cx) list;
  mutable def_work : (def * Parsetree.expression * cx) list;
  mutable mod_work : (mnode * Parsetree.module_expr * cx) list;
  mutable psites : pool_site list;
}

let new_builder () =
  {
    defs_tbl = Hashtbl.create 512;
    ndefs = 0;
    mods_tbl = Hashtbl.create 128;
    nmods = 0;
    roots = Hashtbl.create 32;
    pend_alias = [];
    pend_func = [];
    pend_incl = [];
    def_work = [];
    mod_work = [];
    psites = [];
  }

let mnode_of b id = Hashtbl.find b.mods_tbl id

let add_mod b ~name ~file ~(loc : Location.t) ~kind ~is_functor ~parent =
  let id = b.nmods in
  b.nmods <- id + 1;
  let m =
    {
      m_id = id;
      m_name = name;
      m_file = file;
      m_line = loc.loc_start.pos_lnum;
      m_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
      m_kind = kind;
      m_is_functor = is_functor;
      m_parent = parent;
      m_alias_target = None;
      m_func_target = None;
      m_includes = [];
      m_occs = [];
      m_values = Hashtbl.create 8;
      m_mods = Hashtbl.create 4;
    }
  in
  Hashtbl.replace b.mods_tbl id m;
  m

let add_def b ~name ~file ~(loc : Location.t) ~in_functor ~mut_alloc ~parent_mod =
  let id = b.ndefs in
  b.ndefs <- id + 1;
  let d =
    {
      d_id = id;
      d_name = name;
      d_mod = parent_mod;
      d_file = file;
      d_line = loc.loc_start.pos_lnum;
      d_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
      d_in_functor = in_functor;
      d_mut_alloc = mut_alloc;
      d_mutated = false;
      d_occs = [];
    }
  in
  Hashtbl.replace b.defs_tbl id d;
  let short =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  Hashtbl.replace (mnode_of b parent_mod).m_values short id;
  d

(* ------------------------------------------------------------------ *)
(* Syntactic classifiers. *)

(* Module-level mutable allocations: the binding's value is (or contains,
   after peeling wrappers) shared mutable state. Mutable record literals
   are not recognised — the parser cannot see field mutability. *)
let rec is_mut_alloc (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_array _ -> true
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_lazy e -> is_mut_alloc e
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) | Pexp_open (_, body) -> is_mut_alloc body
  | Pexp_tuple es -> List.exists is_mut_alloc es
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match strip_stdlib (flatten txt) with
      | [ "ref" ]
      | [ "Array"; ("make" | "init" | "create_float" | "copy" | "of_list" | "make_matrix") ]
      | [ "Hashtbl"; ("create" | "of_seq") ]
      | [ "Buffer"; "create" ]
      | [ "Atomic"; "make" ]
      | [ "Bytes"; ("create" | "make" | "of_string") ]
      | [ "Queue"; "create" ]
      | [ "Stack"; "create" ] ->
          true
      | _ -> false)
  | _ -> false

(* In-place mutation entry points: an application of one of these whose
   first argument names a top-level binding marks that binding as
   mutated (the write half of the R9 race condition). *)
let is_mutator path =
  match strip_stdlib path with
  | [ (":=" | "incr" | "decr") ]
  | [ "Hashtbl"; ("replace" | "add" | "remove" | "reset" | "clear" | "filter_map_inplace") ]
  | [ "Array"; ("set" | "fill" | "blit" | "unsafe_set" | "sort" | "fast_sort" | "stable_sort") ]
  | [ "Atomic"; ("set" | "incr" | "decr" | "exchange" | "compare_and_set" | "fetch_and_add") ]
  | [ "Bytes"; ("set" | "fill" | "blit" | "blit_string" | "unsafe_set") ]
  | [ "Buffer";
      ( "add_string" | "add_char" | "add_bytes" | "add_substring" | "add_subbytes"
      | "add_utf_8_uchar" | "clear" | "reset" | "truncate" ) ]
  | [ "Queue"; ("add" | "push" | "pop" | "take" | "clear" | "transfer") ]
  | [ "Stack"; ("push" | "pop" | "clear") ] ->
      true
  | _ -> false

(* The deterministic-pool entry points, matched on the qualified suffix so
   fixtures resolve identically to the real tree. *)
let pool_entry path =
  let rec suffix2 = function
    | [ a; b ] -> Some (a, b)
    | _ :: tl -> suffix2 tl
    | [] -> None
  in
  match suffix2 (strip_stdlib path) with
  | Some ("Pool", "map") -> true
  | Some ("Runs", "run_parallel") -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Resolution. *)

let max_depth = 40

(* Chase [module X = Y] aliases to the structure (or application) they
   ultimately name. *)
let rec chase b depth (m : mnode) =
  if depth <= 0 then m
  else
    match (m.m_kind, m.m_alias_target) with
    | M_alias, Some t -> chase b (depth - 1) (mnode_of b t)
    | _ -> m

(* Look a value name up in a module, through [include]s. *)
let rec lookup_value b depth visited (m : mnode) name =
  if depth <= 0 || List.mem m.m_id visited then None
  else
    let m = chase b depth m in
    if List.mem m.m_id visited then None
    else
      match Hashtbl.find_opt m.m_values name with
      | Some id -> Some (T_def id)
      | None ->
          let visited = m.m_id :: visited in
          let rec through = function
            | [] -> None
            | i :: rest -> (
                match lookup_value b (depth - 1) visited (mnode_of b i) name with
                | Some t -> Some t
                | None -> through rest)
          in
          through m.m_includes

let rec lookup_mod b depth visited (m : mnode) name =
  if depth <= 0 || List.mem m.m_id visited then None
  else
    let m = chase b depth m in
    if List.mem m.m_id visited then None
    else
      match Hashtbl.find_opt m.m_mods name with
      | Some id -> Some id
      | None ->
          let visited = m.m_id :: visited in
          let rec through = function
            | [] -> None
            | i :: rest -> (
                match lookup_mod b (depth - 1) visited (mnode_of b i) name with
                | Some t -> Some t
                | None -> through rest)
          in
          through m.m_includes

(* Walk [comps] down from [m]. An opaque node (functor application,
   unpack, unresolved alias) met mid-path is returned as-is: the caller
   records the module itself as a conservative fallback target. *)
let rec descend b depth (m : mnode) comps =
  if depth <= 0 then None
  else
    let m = chase b depth m in
    match comps with
    | [] -> Some (m, [])
    | c :: rest -> (
        match m.m_kind with
        | M_app -> Some (m, comps)
        | M_alias when Option.is_none m.m_alias_target -> Some (m, comps)
        | _ -> (
            match lookup_mod b depth [] m c with
            | Some i -> descend b (depth - 1) (mnode_of b i) rest
            | None -> None))

(* The chain of enclosing modules, innermost first, ending at the library
   wrapper (whose parent is [None]). *)
let enclosing_chain b cx =
  let rec up acc id =
    let m = mnode_of b id in
    match m.m_parent with
    | None -> List.rev (id :: acc)
    | Some p -> up (id :: acc) p
  in
  (* [up] returns innermost-first: the binding's own module, then each
     enclosing module out to the library wrapper. *)
  up [] cx.cx_mod

let rec resolve_mod b ?(use_opens = true) depth cx comps =
  if depth <= 0 then None
  else
    match comps with
    | [] -> None
    | head :: _ when SS.mem head cx.cx_blocked -> None
    | head :: rest ->
        let try_chain () =
          let rec go = function
            | [] -> None
            | mid :: tl -> (
                match lookup_mod b depth [] (mnode_of b mid) head with
                | Some i -> descend b depth (mnode_of b i) rest
                | None -> go tl)
          in
          go (enclosing_chain b cx)
        in
        let try_roots () =
          match Hashtbl.find_opt b.roots head with
          | Some i -> descend b depth (mnode_of b i) rest
          | None -> None
        in
        let try_opens () =
          if not use_opens then None
          else
            let rec go = function
              | [] -> None
              | o :: tl -> (
                  match resolve_mod b ~use_opens:false (depth - 1) cx (flatten o) with
                  | Some (m, []) -> (
                      match lookup_mod b depth [] m head with
                      | Some i -> descend b depth (mnode_of b i) rest
                      | None -> go tl)
                  | _ -> go tl)
            in
            go cx.cx_opens
        in
        let ( <|> ) a f = match a with Some _ -> a | None -> f () in
        try_chain () <|> try_roots <|> try_opens

(* Resolve a value identifier to its definition, or to a module node when
   the value is hidden behind an opaque boundary (functor application). *)
let resolve_value b cx lid =
  match flatten lid with
  | [] -> None
  | [ x ] ->
      let rec chain = function
        | [] -> opens ()
        | mid :: tl -> (
            let m = mnode_of b mid in
            if m.m_kind = M_library then chain tl
            else
              match lookup_value b max_depth [] m x with
              | Some t -> Some t
              | None -> chain tl)
      and opens () =
        let rec go = function
          | [] -> None
          | o :: tl -> (
              match resolve_mod b ~use_opens:false max_depth cx (flatten o) with
              | Some (m, []) -> (
                  match lookup_value b max_depth [] m x with Some t -> Some t | None -> go tl)
              | _ -> go tl)
        in
        go cx.cx_opens
      in
      chain (enclosing_chain b cx)
  | comps -> (
      let prefix = List.filteri (fun i _ -> i < List.length comps - 1) comps in
      let x = List.nth comps (List.length comps - 1) in
      match resolve_mod b max_depth cx prefix with
      | Some (m, []) -> (
          match lookup_value b max_depth [] m x with
          | Some t -> Some t
          | None -> if m.m_kind = M_app || m.m_is_functor then Some (T_mod m.m_id) else None)
      | Some (m, _) -> Some (T_mod m.m_id) (* opaque mid-path: conservative *)
      | None -> None)

(* ------------------------------------------------------------------ *)
(* Pass 0: skeleton — modules, defs (bodies kept for pass 1). *)

let binding_name (p : Parsetree.pattern) =
  let rec go (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go p

let rec strip_mod (m : Parsetree.module_expr) =
  match m.pmod_desc with Pmod_constraint (m, _) -> strip_mod m | _ -> m

(* [opens] are the enclosing structure's: a nested module or functor body
   sees every [open] above it in the file. *)
let rec add_structure b ~file ~parent ~in_functor ~blocked ~opens (str : Parsetree.structure) =
  let opens = ref opens in
  List.iter
    (fun (item : Parsetree.structure_item) ->
      let cx = { cx_mod = parent; cx_opens = !opens; cx_blocked = blocked } in
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              let pname = mnode_of b parent in
              let name =
                match binding_name vb.pvb_pat with
                | Some x -> pname.m_name ^ "." ^ x
                | None ->
                    Printf.sprintf "%s.(init@%d)" pname.m_name vb.pvb_loc.loc_start.pos_lnum
              in
              let d =
                add_def b ~name ~file ~loc:vb.pvb_loc ~in_functor
                  ~mut_alloc:(is_mut_alloc vb.pvb_expr) ~parent_mod:parent
              in
              b.def_work <- (d, vb.pvb_expr, cx) :: b.def_work)
            vbs
      | Pstr_eval (e, _) ->
          let pname = mnode_of b parent in
          let name = Printf.sprintf "%s.(init@%d)" pname.m_name item.pstr_loc.loc_start.pos_lnum in
          let d =
            add_def b ~name ~file ~loc:item.pstr_loc ~in_functor ~mut_alloc:false
              ~parent_mod:parent
          in
          b.def_work <- (d, e, cx) :: b.def_work
      | Pstr_module mb -> add_module b ~file ~parent ~in_functor ~cx mb
      | Pstr_recmodule mbs -> List.iter (add_module b ~file ~parent ~in_functor ~cx) mbs
      | Pstr_open od -> (
          match (strip_mod od.popen_expr).pmod_desc with
          | Pmod_ident { txt; _ } -> opens := txt :: !opens
          | _ -> ())
      | Pstr_include inc -> (
          match (strip_mod inc.pincl_mod).pmod_desc with
          | Pmod_ident { txt; _ } -> b.pend_incl <- (parent, txt, cx) :: b.pend_incl
          | _ -> b.mod_work <- (mnode_of b parent, inc.pincl_mod, cx) :: b.mod_work)
      | _ -> ())
    str

and add_module b ~file ~parent ~in_functor ~cx (mb : Parsetree.module_binding) =
  let pname = mnode_of b parent in
  let base =
    match mb.pmb_name.txt with
    | Some x -> x
    | None -> Printf.sprintf "(anon@%d)" mb.pmb_loc.loc_start.pos_lnum
  in
  let name = pname.m_name ^ "." ^ base in
  (* Peel functor parameters, collecting their names as blocked (a functor
     parameter shadows any same-named global module inside the body). *)
  let rec peel blocked (me : Parsetree.module_expr) params =
    match (strip_mod me).pmod_desc with
    | Pmod_functor (fp, body) ->
        let blocked =
          match fp with
          | Named ({ txt = Some x; _ }, _) -> SS.add x blocked
          | _ -> blocked
        in
        peel blocked body (params + 1)
    | _ -> (blocked, strip_mod me, params > 0)
  in
  let blocked, body, is_functor = peel cx.cx_blocked mb.pmb_expr 0 in
  let cx = { cx with cx_blocked = blocked } in
  let register kind =
    let m = add_mod b ~name ~file ~loc:mb.pmb_loc ~kind ~is_functor ~parent:(Some parent) in
    Hashtbl.replace pname.m_mods base m.m_id;
    m
  in
  match body.pmod_desc with
  | Pmod_structure str ->
      let m = register M_plain in
      add_structure b ~file ~parent:m.m_id ~in_functor:(in_functor || is_functor) ~blocked
        ~opens:cx.cx_opens str
  | Pmod_ident { txt; _ } ->
      let m = register M_alias in
      b.pend_alias <- (m.m_id, txt, cx) :: b.pend_alias
  | Pmod_apply _ | Pmod_apply_unit _ ->
      let m = register M_app in
      let rec head (me : Parsetree.module_expr) =
        match (strip_mod me).pmod_desc with
        | Pmod_apply (f, arg) ->
            b.mod_work <- (m, arg, cx) :: b.mod_work;
            head f
        | Pmod_apply_unit f -> head f
        | Pmod_ident { txt; _ } -> b.pend_func <- (m.m_id, txt, cx) :: b.pend_func
        | _ -> b.mod_work <- (m, strip_mod me, cx) :: b.mod_work
      in
      head body
  | Pmod_unpack _ | Pmod_extension _ | Pmod_functor _ ->
      let m = register M_app in
      b.mod_work <- (m, body, cx) :: b.mod_work
  | Pmod_constraint _ -> assert false (* stripped *)

(* ------------------------------------------------------------------ *)
(* Pass 0.5: resolve module aliases, functor heads and includes to ids,
   iterating because aliases chain through each other. *)

let resolve_pending b =
  let progress = ref true in
  while !progress do
    progress := false;
    let step pend assign =
      List.filter
        (fun (id, lid, cx) ->
          match resolve_mod b max_depth cx (flatten lid) with
          | Some (m, []) ->
              assign id m.m_id;
              progress := true;
              false
          | _ -> true)
        pend
    in
    b.pend_alias <- step b.pend_alias (fun id t -> (mnode_of b id).m_alias_target <- Some t);
    b.pend_func <- step b.pend_func (fun id t -> (mnode_of b id).m_func_target <- Some t);
    b.pend_incl <-
      step b.pend_incl (fun id t ->
          let m = mnode_of b id in
          m.m_includes <- t :: m.m_includes)
  done

(* ------------------------------------------------------------------ *)
(* Pass 1: walk definition bodies — free identifiers, mutation sites,
   pool call sites. *)

type wenv = {
  w_cx : cx;
  w_locals : SS.t;
  w_guarded : bool;
  w_sinks : occ list ref list;
}

let record b env ?(lid : Longident.t option) (loc : Location.t) =
  let skip =
    match lid with
    | Some (Longident.Lident x) -> SS.mem x env.w_locals
    | _ -> false
  in
  if not skip then begin
    let target = match lid with Some l -> resolve_value b env.w_cx l | None -> None in
    let o =
      {
        o_lid = lid;
        o_line = loc.loc_start.pos_lnum;
        o_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        o_guarded = env.w_guarded;
        o_target = target;
      }
    in
    List.iter (fun sink -> sink := o :: !sink) env.w_sinks
  end

let rec pat_vars acc (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> SS.add txt acc
  | Ppat_alias (p, { txt; _ }) -> pat_vars (SS.add txt acc) p
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pat_vars acc ps
  | Ppat_construct (_, Some (_, p))
  | Ppat_variant (_, Some p)
  | Ppat_constraint (p, _)
  | Ppat_lazy p
  | Ppat_exception p
  | Ppat_open (_, p) ->
      pat_vars acc p
  | Ppat_record (fields, _) -> List.fold_left (fun acc (_, p) -> pat_vars acc p) acc fields
  | Ppat_or (a, bb) -> pat_vars (pat_vars acc a) bb
  | _ -> acc

(* Mark the top-level binding (if any) named by a mutation target like
   [x], [x.field] or [(x : t)]. *)
let mark_mutated b env (e : Parsetree.expression) =
  let rec peel (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_field (e, _) | Pexp_constraint (e, _) -> peel e
    | _ -> e
  in
  match (peel e).pexp_desc with
  | Pexp_ident { txt; _ } -> (
      let local = match txt with Longident.Lident x -> SS.mem x env.w_locals | _ -> false in
      if not local then
        match resolve_value b env.w_cx txt with
        | Some (T_def id) -> (Hashtbl.find b.defs_tbl id).d_mutated <- true
        | _ -> ())
  | _ -> ()

let rec walk b env (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> record b env ~lid:txt e.pexp_loc
  | Pexp_constant _ | Pexp_extension _ | Pexp_unreachable -> ()
  | Pexp_let (rf, vbs, body) ->
      let bound = List.fold_left (fun acc (vb : Parsetree.value_binding) -> pat_vars acc vb.pvb_pat) env.w_locals vbs in
      let env_rhs = if rf = Asttypes.Recursive then { env with w_locals = bound } else env in
      List.iter (fun (vb : Parsetree.value_binding) -> walk b env_rhs vb.pvb_expr) vbs;
      walk b { env with w_locals = bound } body
  | Pexp_function cases -> walk_cases b env cases
  | Pexp_fun (_, default, pat, body) ->
      Option.iter (walk b env) default;
      walk b { env with w_locals = pat_vars env.w_locals pat } body
  | Pexp_apply (f, args) ->
      (match f.pexp_desc with
      | Pexp_ident { txt; _ } ->
          let path = flatten txt in
          if is_mutator path then (
            match args with (_, first) :: _ -> mark_mutated b env first | [] -> ());
          if pool_entry path then begin
            let captured = ref [] in
            let env' = { env with w_sinks = captured :: env.w_sinks } in
            List.iter (fun (_, a) -> walk b env' a) args;
            b.psites <-
              {
                p_file = e.pexp_loc.loc_start.pos_fname;
                p_line = e.pexp_loc.loc_start.pos_lnum;
                p_col = e.pexp_loc.loc_start.pos_cnum - e.pexp_loc.loc_start.pos_bol;
                p_callee = lid_name txt;
                p_captured = !captured;
              }
              :: b.psites;
            record b env ~lid:txt f.pexp_loc
          end
          else begin
            walk b env f;
            List.iter (fun (_, a) -> walk b env a) args
          end
      | _ ->
          walk b env f;
          List.iter (fun (_, a) -> walk b env a) args)
  | Pexp_match (scrut, cases) ->
      walk b env scrut;
      walk_cases b env cases
  | Pexp_try (body, cases) ->
      (* The handler catches whatever the body raises: [Raises] from the
         body is absorbed (assumed-exhaustive handlers — see the caveats
         in DESIGN.md section 13); the handler itself is not guarded. *)
      walk b { env with w_guarded = true } body;
      walk_cases b env cases
  | Pexp_tuple es | Pexp_array es -> List.iter (walk b env) es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> Option.iter (walk b env) arg
  | Pexp_record (fields, base) ->
      List.iter (fun (_, e) -> walk b env e) fields;
      Option.iter (walk b env) base
  | Pexp_field (e, _) -> walk b env e
  | Pexp_setfield (lhs, _, rhs) ->
      mark_mutated b env lhs;
      walk b env lhs;
      walk b env rhs
  | Pexp_ifthenelse (c, t, f) ->
      walk b env c;
      walk b env t;
      Option.iter (walk b env) f
  | Pexp_sequence (a, bb) ->
      walk b env a;
      walk b env bb
  | Pexp_while (c, body) ->
      walk b env c;
      walk b env body
  | Pexp_for (pat, lo, hi, _, body) ->
      walk b env lo;
      walk b env hi;
      walk b { env with w_locals = pat_vars env.w_locals pat } body
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_lazy e | Pexp_poly (e, _)
  | Pexp_newtype (_, e) | Pexp_send (e, _) | Pexp_setinstvar (_, e) ->
      walk b env e
  | Pexp_assert inner ->
      record b env e.pexp_loc (* an [assert] occurrence: Raises *)
      ;
      walk b env inner
  | Pexp_letmodule (name, mexpr, body) ->
      walk_mexpr b env mexpr;
      let blocked =
        match name.txt with
        | Some x -> SS.add x env.w_cx.cx_blocked
        | None -> env.w_cx.cx_blocked
      in
      walk b { env with w_cx = { env.w_cx with cx_blocked = blocked } } body
  | Pexp_letexception (_, body) -> walk b env body
  | Pexp_open (od, body) ->
      let env =
        match (strip_mod od.popen_expr).pmod_desc with
        | Pmod_ident { txt; _ } ->
            { env with w_cx = { env.w_cx with cx_opens = txt :: env.w_cx.cx_opens } }
        | _ ->
            walk_mexpr b env od.popen_expr;
            env
      in
      walk b env body
  | Pexp_pack mexpr -> walk_mexpr b env mexpr
  | Pexp_letop { let_; ands; body } ->
      walk b env let_.pbop_exp;
      List.iter (fun (a : Parsetree.binding_op) -> walk b env a.pbop_exp) ands;
      let bound =
        List.fold_left
          (fun acc (a : Parsetree.binding_op) -> pat_vars acc a.pbop_pat)
          env.w_locals (let_ :: ands)
      in
      walk b { env with w_locals = bound } body
  | Pexp_override fields -> List.iter (fun (_, e) -> walk b env e) fields
  | Pexp_new _ | Pexp_object _ -> ()

and walk_cases b env cases =
  List.iter
    (fun (c : Parsetree.case) ->
      let env = { env with w_locals = pat_vars env.w_locals c.pc_lhs } in
      Option.iter (walk b env) c.pc_guard;
      walk b env c.pc_rhs)
    cases

(* Module expressions met inside bodies or as functor arguments: record
   module identifiers as occurrences (conservative fallback targets) and
   walk any embedded expressions. *)
and walk_mexpr b env (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } ->
      let target =
        match resolve_mod b max_depth env.w_cx (flatten txt) with
        | Some (m, _) -> Some (T_mod m.m_id)
        | None -> None
      in
      let o =
        {
          o_lid = Some txt;
          o_line = me.pmod_loc.loc_start.pos_lnum;
          o_col = me.pmod_loc.loc_start.pos_cnum - me.pmod_loc.loc_start.pos_bol;
          o_guarded = env.w_guarded;
          o_target = target;
        }
      in
      List.iter (fun sink -> sink := o :: !sink) env.w_sinks
  | Pmod_structure str ->
      (* Local structure inside an expression: its bindings' effects belong
         to the enclosing definition. Opens and submodules inside it are
         handled conservatively (effects only). *)
      List.iter
        (fun (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter (fun (vb : Parsetree.value_binding) -> walk b env vb.pvb_expr) vbs
          | Pstr_eval (e, _) -> walk b env e
          | Pstr_module mb -> walk_mexpr b env mb.pmb_expr
          | Pstr_recmodule mbs -> List.iter (fun (mb : Parsetree.module_binding) -> walk_mexpr b env mb.pmb_expr) mbs
          | Pstr_include inc -> walk_mexpr b env inc.pincl_mod
          | _ -> ())
        str
  | Pmod_functor (fp, body) ->
      let blocked =
        match fp with
        | Named ({ txt = Some x; _ }, _) -> SS.add x env.w_cx.cx_blocked
        | _ -> env.w_cx.cx_blocked
      in
      walk_mexpr b { env with w_cx = { env.w_cx with cx_blocked = blocked } } body
  | Pmod_apply (f, a) ->
      walk_mexpr b env f;
      walk_mexpr b env a
  | Pmod_apply_unit f -> walk_mexpr b env f
  | Pmod_constraint (m, _) -> walk_mexpr b env m
  | Pmod_unpack e -> walk b env e
  | Pmod_extension _ -> ()

(* ------------------------------------------------------------------ *)
(* Entry point. *)

let build (files : (string * Parsetree.structure) list) =
  let b = new_builder () in
  (* Pass 0: skeleton. *)
  List.iter
    (fun (file, str) ->
      let root_key, modname, lib_wrapper =
        match unit_of_file file with
        | `Lib (w, m) -> (w, m, true)
        | `Standalone (k, m) -> (k, m, false)
      in
      let parent_id =
        match Hashtbl.find_opt b.roots root_key with
        | Some i -> i
        | None ->
            let m =
              add_mod b ~name:root_key ~file
                ~loc:Location.none ~kind:M_library ~is_functor:false ~parent:None
            in
            Hashtbl.replace b.roots root_key m.m_id;
            m.m_id
      in
      let parent = mnode_of b parent_id in
      let unit_name =
        if lib_wrapper then root_key ^ "." ^ modname else modname
      in
      let u =
        add_mod b ~name:unit_name ~file
          ~loc:Location.none ~kind:M_plain ~is_functor:false ~parent:(Some parent_id)
      in
      Hashtbl.replace parent.m_mods modname u.m_id;
      add_structure b ~file ~parent:u.m_id ~in_functor:false ~blocked:SS.empty ~opens:[] str)
    files;
  (* Pass 0.5: module-level resolution fixpoint. *)
  resolve_pending b;
  (* Pass 1: bodies. *)
  List.iter
    (fun (d, expr, cx) ->
      let sink = ref [] in
      let env = { w_cx = cx; w_locals = SS.empty; w_guarded = false; w_sinks = [ sink ] } in
      walk b env expr;
      d.d_occs <- List.rev !sink)
    (List.rev b.def_work);
  List.iter
    (fun ((m : mnode), mexpr, cx) ->
      let sink = ref [] in
      let env = { w_cx = cx; w_locals = SS.empty; w_guarded = false; w_sinks = [ sink ] } in
      walk_mexpr b env mexpr;
      m.m_occs <- List.rev_append !sink m.m_occs)
    (List.rev b.mod_work);
  let defs = Array.init b.ndefs (fun i -> Hashtbl.find b.defs_tbl i) in
  let mods = Array.init b.nmods (fun i -> Hashtbl.find b.mods_tbl i) in
  { g_defs = defs; g_mods = mods; g_pool_sites = List.rev b.psites }

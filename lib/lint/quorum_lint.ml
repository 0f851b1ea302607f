(* The symbolic quorum-safety analyzer (R16-R18).

   The cost layer (R11-R15) asks "how much does a transition cost"; this
   layer asks "is the threshold arithmetic sound for every (n, t) the
   protocol claims to tolerate".  It walks the typed trees, reduces
   every quorum-threshold definition — the protocol's own defaults and
   any [?decide_quorum]-style hook passed at a construction site — to a
   symbolic affine form over [n] and [t] ({!Symexpr}), and discharges
   per-family obligations (quorum intersection above the fault bound,
   decide thresholds out of the adversary's unilateral reach, registry
   resilience claims matching the arithmetic) with the exact integer
   decision procedure.  A failed obligation comes with a concrete
   witness point (n, t) inside the declared resilience region.

   Extraction is a small symbolic evaluator over the typed tree, not a
   parser of naming conventions: optional-argument defaults are read
   through the elaborated [match ... with None -> default | Some d -> d]
   the compiler inserts, [Thresholds.default]'s validation match is
   resolved by the all-but-one-branch-raises rule, local helper
   closures (e.g. [Reliable_broadcast.create]'s [dflt]) are
   beta-reduced, and guard conditions that compare symbolic quantities
   are decided by {!Symexpr.implies} under the family's resilience
   region.  Anything outside the fragment evaluates to an unknown,
   which is reported rather than silently trusted when it reaches a
   threshold position. *)

(* ------------------------------------------------------------------ *)
(* Symbolic values.                                                    *)

type value =
  | VSym of Symexpr.t
  | VBool of bool
  | VTest of Symexpr.t  (* truth value of [expr >= 0] *)
  | VString of string
  | VConstruct of string * value list
  | VTuple of value list
  | VRecord of (string * value) list
  | VClosure of closure
  | VUnknown

and closure = {
  cl_env : env;
  cl_globals : (string, Typedtree.expression) Hashtbl.t;
      (* the defining module's top-levels, so the body's free
         identifiers resolve there, not in the caller's module *)
  cl_body : Typedtree.expression;
}

and env = (string * value) list

exception Raises
(* The evaluated expression raises on every path: [invalid_arg],
   [failwith], [raise], [assert false], or a match with no case. *)

let vnone = VConstruct ("None", [])
let vunit = VConstruct ("()", [])

type st = {
  fuel : int ref;  (* shared across module switches *)
  region : Symexpr.t list;  (* ambient assumptions for guard pruning *)
  globals : (string, Typedtree.expression) Hashtbl.t;
      (* current module's top-level bindings, for beta-reduction *)
  mods : (string, (string, Typedtree.expression) Hashtbl.t) Hashtbl.t;
      (* every loaded module's top-levels, for cross-module calls *)
  bindings : (string, value) Hashtbl.t;
      (* side table: every let-binding evaluated along the way *)
}

let raising_names =
  [ "invalid_arg"; "failwith"; "raise"; "raise_notrace"; "raise_error" ]

let holds st goal =
  match Symexpr.implies ~region:st.region goal with
  | Symexpr.Holds -> Some true
  | Symexpr.Fails _ -> None
  | Symexpr.Unknown _ -> None
  | exception Symexpr.Undecidable _ -> None

(* Decide a test under the ambient region: [Some true] when the
   comparison holds everywhere, [Some false] when its negation does. *)
let decide_test st s =
  match holds st s with
  | Some true -> Some true
  | _ -> (
      (* not (s >= 0)  <=>  s <= -1  <=>  -1 - s >= 0 *)
      match holds st (Symexpr.sub (Symexpr.int_ (-1)) s) with
      | Some true -> Some false
      | _ -> None)

let rec pattern_vars (p : Typedtree.value Typedtree.general_pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) -> [ Ident.name id ]
  | Tpat_alias (p', id, _) -> Ident.name id :: pattern_vars p'
  | Tpat_tuple ps | Tpat_construct (_, _, ps, _) | Tpat_array ps ->
      List.concat_map pattern_vars ps
  | Tpat_record (fields, _) ->
      List.concat_map (fun (_, _, p') -> pattern_vars p') fields
  | Tpat_or (a, b, _) -> pattern_vars a @ pattern_vars b
  | Tpat_variant (_, Some p', _) -> pattern_vars p'
  | Tpat_lazy p' -> pattern_vars p'
  | Tpat_any | Tpat_constant _ | Tpat_variant (_, None, _) -> []

type match_result = Match of env | NoMatch | Ambiguous

let rec match_value v (p : Typedtree.value Typedtree.general_pattern) =
  match p.pat_desc with
  | Tpat_any -> Match []
  | Tpat_var (id, _) -> Match [ (Ident.name id, v) ]
  | Tpat_alias (p', id, _) -> (
      match match_value v p' with
      | Match bs -> Match ((Ident.name id, v) :: bs)
      | r -> r)
  | Tpat_constant (Asttypes.Const_int k) -> (
      match v with
      | VSym s -> (
          match Symexpr.as_affine s with
          | Some (0, 0, c) -> if c = k then Match [] else NoMatch
          | _ -> Ambiguous)
      | _ -> Ambiguous)
  | Tpat_constant _ -> Ambiguous
  | Tpat_construct (_, cstr, argps, _) -> (
      let name = cstr.Types.cstr_name in
      match (v, name) with
      | VBool b, "true" -> if b then Match [] else NoMatch
      | VBool b, "false" -> if b then NoMatch else Match []
      | VConstruct (n, argvs), _ ->
          if String.equal n name then
            if List.length argvs = List.length argps then
              match_all (List.combine argvs argps)
            else Ambiguous
          else NoMatch
      | _ -> Ambiguous)
  | Tpat_tuple ps -> (
      match v with
      | VTuple vs when List.length vs = List.length ps ->
          match_all (List.combine vs ps)
      | _ ->
          (* Unknown tuple: bind every variable as unknown. *)
          Match (List.map (fun nm -> (nm, VUnknown)) (pattern_vars p)))
  | Tpat_record (fields, _) -> (
      match v with
      | VRecord fs ->
          match_all
            (List.map
               (fun ((_, (lbl : Types.label_description), p') :
                      Longident.t Location.loc
                      * Types.label_description
                      * Typedtree.value Typedtree.general_pattern) ->
                 ( (match List.assoc_opt lbl.Types.lbl_name fs with
                   | Some fv -> fv
                   | None -> VUnknown),
                   p' ))
               fields)
      | _ -> Match (List.map (fun nm -> (nm, VUnknown)) (pattern_vars p)))
  | Tpat_or (a, b, _) -> (
      match match_value v a with NoMatch -> match_value v b | r -> r)
  | Tpat_lazy _ | Tpat_variant _ | Tpat_array _ -> Ambiguous

and match_all = function
  | [] -> Match []
  | (v, p) :: rest -> (
      match match_value v p with
      | NoMatch -> NoMatch
      | Ambiguous -> Ambiguous
      | Match bs -> (
          match match_all rest with
          | Match bs' -> Match (bs @ bs')
          | r -> r))

(* ------------------------------------------------------------------ *)
(* The evaluator.                                                      *)

let record_binding st name v =
  (* First symbolic value wins; later shadowing cannot overwrite it. *)
  match Hashtbl.find_opt st.bindings name with
  | Some (VSym _) -> ()
  | Some _ | None -> Hashtbl.replace st.bindings name v

let rec eval st env (e : Typedtree.expression) : value =
  decr st.fuel;
  if !(st.fuel) <= 0 then VUnknown
  else
    match e.exp_desc with
    | Texp_constant (Asttypes.Const_int k) -> VSym (Symexpr.int_ k)
    | Texp_constant (Asttypes.Const_string (s, _, _)) -> VString s
    | Texp_constant _ -> VUnknown
    | Texp_ident (Path.Pident id, _, _) -> (
        let name = Ident.name id in
        match List.assoc_opt name env with
        | Some v -> v
        | None -> (
            if List.mem name raising_names then raise Raises
            else
              match Hashtbl.find_opt st.globals name with
              | Some ({ exp_desc = Texp_function _; _ } as fn) ->
                  VClosure { cl_env = []; cl_globals = st.globals; cl_body = fn }
              | Some expr -> eval st [] expr
              | None -> VUnknown))
    | Texp_ident (p, _, _) -> (
        match List.rev (Callgraph.path_components p) with
        | last :: _ when List.mem last raising_names -> raise Raises
        | last :: modname :: _ -> (
            (* Cross-module reference: resolve in that module's
               top-levels when it is loaded. *)
            match Hashtbl.find_opt st.mods modname with
            | None -> VUnknown
            | Some globals -> (
                match Hashtbl.find_opt globals last with
                | Some ({ exp_desc = Texp_function _; _ } as fn) ->
                    VClosure { cl_env = []; cl_globals = globals; cl_body = fn }
                | Some expr -> eval { st with globals } [] expr
                | None -> VUnknown))
        | _ -> VUnknown)
    | Texp_function _ ->
        VClosure { cl_env = env; cl_globals = st.globals; cl_body = e }
    | Texp_apply (f, args) -> eval_apply st env f args
    | Texp_let (_, vbs, body) ->
        let env =
          List.fold_left
            (fun acc (vb : Typedtree.value_binding) ->
              let v = try eval st acc vb.vb_expr with Raises -> raise Raises in
              match match_value v vb.vb_pat with
              | Match bs ->
                  List.iter (fun (nm, bv) -> record_binding st nm bv) bs;
                  bs @ acc
              | NoMatch | Ambiguous ->
                  let bs =
                    List.map
                      (fun nm -> (nm, VUnknown))
                      (pattern_vars vb.vb_pat)
                  in
                  List.iter (fun (nm, bv) -> record_binding st nm bv) bs;
                  bs @ acc)
            env vbs
        in
        eval st env body
    | Texp_match (scrut, cases, _) ->
        let v = try eval st env scrut with Raises -> raise Raises in
        let value_cases =
          List.filter_map
            (fun (c : Typedtree.computation Typedtree.case) ->
              match Typedtree.split_pattern c.c_lhs with
              | Some p, _ -> Some (p, c.c_guard, c.c_rhs)
              | None, _ -> None)
            cases
        in
        eval_cases st env v value_cases
    | Texp_ifthenelse (c, then_, else_) -> (
        let cv = try eval st env c with Raises -> raise Raises in
        let else_value st =
          match else_ with Some e' -> eval st env e' | None -> vunit
        in
        match cv with
        | VBool true -> eval st env then_
        | VBool false -> else_value st
        | VTest s -> (
            match decide_test st s with
            | Some true -> eval st env then_
            | Some false -> else_value st
            | None -> explore2 st (fun st -> eval st env then_) else_value)
        | _ -> explore2 st (fun st -> eval st env then_) else_value)
    | Texp_construct (_, cstr, args) -> (
        match cstr.Types.cstr_name with
        | "true" -> VBool true
        | "false" -> VBool false
        | name -> VConstruct (name, List.map (eval st env) args))
    | Texp_tuple es -> VTuple (List.map (eval st env) es)
    | Texp_record { fields; extended_expression; _ } ->
        let base =
          match extended_expression with
          | Some b -> (
              match eval st env b with VRecord fs -> Some fs | _ -> None)
          | None -> None
        in
        VRecord
          (Array.to_list fields
          |> List.map (fun ((lbl : Types.label_description), def) ->
                 let name = lbl.Types.lbl_name in
                 match def with
                 | Typedtree.Overridden (_, ex) -> (name, eval st env ex)
                 | Typedtree.Kept _ -> (
                     match base with
                     | Some fs ->
                         (name, Option.value ~default:VUnknown
                                  (List.assoc_opt name fs))
                     | None -> (name, VUnknown))))
    | Texp_field (b, _, lbl) -> (
        let name = lbl.Types.lbl_name in
        match eval st env b with
        | VRecord fs -> Option.value ~default:VUnknown (List.assoc_opt name fs)
        | _ -> (
            (* Ambient protocol-state fields: any record we cannot see
               is assumed to carry the instance parameters under their
               conventional names. *)
            match name with
            | "n" -> VSym Symexpr.n_
            | "t" | "fault_bound" -> VSym Symexpr.t_
            | _ -> VUnknown))
    | Texp_sequence (a, b) ->
        (try ignore (eval st env a) with Raises -> raise Raises);
        eval st env b
    | Texp_assert ({ exp_desc = Texp_construct (_, c, _); _ }, _)
      when c.Types.cstr_name = "false" ->
        raise Raises
    | Texp_assert _ -> vunit
    | Texp_open (_, body) -> eval st env body
    | Texp_try (body, _) -> ( try eval st env body with Raises -> VUnknown)
    | _ -> VUnknown

(* Both branches of an undecidable conditional are explored so their
   let-bindings land in the side table; the result is kept only when
   the branches agree on a symbolic value. *)
and explore2 st f g =
  let a = try Some (f st) with Raises -> None in
  let b = try Some (g st) with Raises -> None in
  match (a, b) with
  | Some v, None | None, Some v -> v
  | None, None -> raise Raises
  | Some (VSym x), Some (VSym y) when x = y -> VSym x
  | Some _, Some _ -> VUnknown

and eval_cases st env v cases =
  let rec pick = function
    | [] -> `NoCase
    | (p, guard, rhs) :: rest -> (
        match match_value v p with
        | NoMatch -> pick rest
        | Match bs when guard = None -> `Picked (bs, rhs)
        | Match _ | Ambiguous -> `Ambiguous)
  in
  match pick cases with
  | `Picked (bs, rhs) ->
      List.iter (fun (nm, bv) -> record_binding st nm bv) bs;
      eval st (bs @ env) rhs
  | `NoCase -> raise Raises
  | `Ambiguous -> (
      (* All-but-one-branch-raises: if every case but one raises on
         every path, the survivor is the value (pattern variables bound
         as unknowns).  [Thresholds.default]'s validation match reduces
         this way: the [Error] arm ends in [invalid_arg]. *)
      let survivors =
        List.filter_map
          (fun (p, _guard, rhs) ->
            let bs = List.map (fun nm -> (nm, VUnknown)) (pattern_vars p) in
            List.iter (fun (nm, bv) -> record_binding st nm bv) bs;
            match eval st (bs @ env) rhs with
            | v -> Some v
            | exception Raises -> None)
          cases
      in
      match survivors with [ v ] -> v | [] -> raise Raises | _ -> VUnknown)

and eval_apply st env f args =
  let argv = List.filter_map (fun (_, a) -> a) args in
  let arith2 op =
    match List.map (eval st env) argv with
    | [ VSym a; VSym b ] -> op a b
    | _ -> VUnknown
  in
  let name =
    match f.Typedtree.exp_desc with
    | Texp_ident (p, _, _) -> Callgraph.stdlib_name p
    | _ -> ""
  in
  match name with
  | "+" -> arith2 (fun a b -> VSym (Symexpr.add a b))
  | "-" -> arith2 (fun a b -> VSym (Symexpr.sub a b))
  | "*" ->
      arith2 (fun a b ->
          match (Symexpr.as_affine a, Symexpr.as_affine b) with
          | Some (0, 0, k), _ -> VSym (Symexpr.scale k b)
          | _, Some (0, 0, k) -> VSym (Symexpr.scale k a)
          | _ -> VUnknown)
  | "/" ->
      arith2 (fun a b ->
          match Symexpr.as_affine b with
          | Some (0, 0, k) when k > 0 -> VSym (Symexpr.div a k)
          | _ -> VUnknown)
  | "max" -> arith2 (fun a b -> VSym (Symexpr.max_ a b))
  | "min" -> arith2 (fun a b -> VSym (Symexpr.min_ a b))
  | ">=" -> arith2 (fun a b -> VTest (Symexpr.ge a b))
  | ">" -> arith2 (fun a b -> VTest (Symexpr.gt a b))
  | "<=" -> arith2 (fun a b -> VTest (Symexpr.le a b))
  | "<" -> arith2 (fun a b -> VTest (Symexpr.lt a b))
  | "not" -> (
      match List.map (eval st env) argv with
      | [ VBool b ] -> VBool (not b)
      | [ VTest s ] -> VTest (Symexpr.sub (Symexpr.int_ (-1)) s)
      | _ -> VUnknown)
  | "&&" | "||" -> (
      let conj = String.equal name "&&" in
      match List.map (eval st env) argv with
      | [ VBool a; VBool b ] -> VBool (if conj then a && b else a || b)
      | [ VBool true; v ] | [ v; VBool true ] -> if conj then v else VBool true
      | [ VBool false; v ] | [ v; VBool false ] ->
          if conj then VBool false else v
      | _ -> VUnknown)
  | _ -> (
      match eval st env f with
      | VClosure cl ->
          let vs = List.map (eval st env) argv in
          apply st cl vs
      | _ ->
          (* Unknown callee: still force the arguments, so a raising
             argument (e.g. [invalid_arg (Printf.sprintf ...)]) is
             seen. *)
          List.iter (fun a -> ignore (eval st env a)) argv;
          VUnknown)

and apply st cl vs =
  let st = { st with globals = cl.cl_globals } in
  match vs with
  | [] -> VClosure cl
  | v :: rest -> (
      match cl.cl_body.exp_desc with
      | Texp_function { cases; _ } -> (
          let value_cases =
            List.map
              (fun (c : Typedtree.value Typedtree.case) ->
                (c.c_lhs, c.c_guard, c.c_rhs))
              cases
          in
          match eval_cases st cl.cl_env v value_cases with
          | VClosure cl' -> apply st cl' rest
          | result -> if rest = [] then result else VUnknown)
      | _ -> (
          match eval st cl.cl_env cl.cl_body with
          | VClosure cl' -> apply st cl' vs
          | _ -> VUnknown))

(* Feed a function's parameters by name: labelled/optional parameters
   by label, positional ones by their pattern variable.  Unlisted
   optional parameters default to [None] (so `?(x = d)` elaborations
   take their declared default), anything else to unknown. *)
let saturate st expr ~args =
  let rec go v =
    match v with
    | VClosure cl -> (
        let st = { st with globals = cl.cl_globals } in
        match cl.cl_body.exp_desc with
        | Texp_function { arg_label; cases; _ } ->
            let pname =
              match arg_label with
              | Asttypes.Labelled s | Asttypes.Optional s -> Some s
              | Asttypes.Nolabel -> (
                  match cases with
                  | [ { c_lhs = { pat_desc = Tpat_var (id, _); _ }; _ } ] ->
                      Some (Ident.name id)
                  | [ { c_lhs = { pat_desc = Tpat_alias (_, id, _); _ }; _ } ]
                    ->
                      Some (Ident.name id)
                  | _ -> None)
            in
            let argv =
              match pname with
              | Some nm when List.mem_assoc nm args -> List.assoc nm args
              | _ -> (
                  match arg_label with
                  | Asttypes.Optional _ -> vnone
                  | _ -> VUnknown)
            in
            let value_cases =
              List.map
                (fun (c : Typedtree.value Typedtree.case) ->
                  (c.c_lhs, c.c_guard, c.c_rhs))
                cases
            in
            go (eval_cases st cl.cl_env argv value_cases)
        | _ -> eval st cl.cl_env cl.cl_body)
    | other -> other
  in
  go (VClosure { cl_env = []; cl_globals = st.globals; cl_body = expr })

(* ------------------------------------------------------------------ *)
(* Extraction loci.                                                    *)

(* Where a threshold's default definition lives: a top-level function
   of a protocol module, evaluated with the given arguments, and then
   either the whole result, a field of the resulting record, or a
   let-binding recorded along the way. *)
type target = Whole | Field of string | Binding of string

type locus = {
  lc_module : string;
  lc_fun : string;
  lc_args : (string * value) list;
  lc_target : target;
}

let sym_n = VSym Symexpr.n_
let sym_t = VSym Symexpr.t_

(* Per-module table of top-level bindings (the evaluator's beta
   environment), built once per analysis. *)
let module_globals units =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      let globals = Hashtbl.create 32 in
      List.iter
        (fun (item : Typedtree.structure_item) ->
          match item.str_desc with
          | Tstr_value (_, vbs) ->
              List.iter
                (fun (vb : Typedtree.value_binding) ->
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (id, _) ->
                      Hashtbl.replace globals (Ident.name id) vb.vb_expr
                  | _ -> ())
                vbs
          | _ -> ())
        u.structure.str_items;
      Hashtbl.replace table u.modname globals)
    units;
  table

let fresh_st ~region ~mods globals =
  { fuel = ref 50_000; region; globals; mods; bindings = Hashtbl.create 32 }

let run_locus ~region mods locus =
  match Hashtbl.find_opt mods locus.lc_module with
  | None -> Error (Printf.sprintf "module %s not loaded" locus.lc_module)
  | Some globals -> (
      match Hashtbl.find_opt globals locus.lc_fun with
      | None ->
          Error
            (Printf.sprintf "no binding %s.%s" locus.lc_module locus.lc_fun)
      | Some expr -> (
          let st = fresh_st ~region ~mods globals in
          match saturate st expr ~args:locus.lc_args with
          | v -> (
              let resolve = function
                | VSym s -> Ok s
                | _ ->
                    Error
                      (Printf.sprintf
                         "%s.%s did not reduce to an affine threshold"
                         locus.lc_module locus.lc_fun)
              in
              match locus.lc_target with
              | Whole -> resolve v
              | Field f -> (
                  match v with
                  | VRecord fs -> (
                      match List.assoc_opt f fs with
                      | Some fv -> resolve fv
                      | None ->
                          Error
                            (Printf.sprintf "%s.%s has no field %s"
                               locus.lc_module locus.lc_fun f))
                  | _ ->
                      Error
                        (Printf.sprintf "%s.%s did not reduce to a record"
                           locus.lc_module locus.lc_fun))
              | Binding b -> (
                  match Hashtbl.find_opt st.bindings b with
                  | Some bv -> resolve bv
                  | None ->
                      Error
                        (Printf.sprintf "no binding %s inside %s.%s" b
                           locus.lc_module locus.lc_fun)))
          | exception Raises ->
              Error
                (Printf.sprintf "%s.%s raises under the declared region"
                   locus.lc_module locus.lc_fun)))

(* ------------------------------------------------------------------ *)
(* Family specifications.                                              *)

type obligation = {
  o_rule : Rules.t;  (* R16 here; R18 re-checks over the registry region *)
  o_label : string;  (* human name, e.g. "quorum intersection" *)
  o_goal : Symexpr.t;  (* must be >= 0 over the region *)
}

type decide_spec = {
  d_module : string;
  d_fun : string;  (* the function whose Some-construction decides *)
  d_gates : string list;  (* identifiers that count as quorum gates *)
}

type family = {
  f_key : string;  (* registry name of the sound instance *)
  f_module : string;  (* module whose [protocol] constructs instances *)
  f_requires : string list;  (* modules the extraction loci need *)
  f_region_of : (string, (string, Typedtree.expression) Hashtbl.t) Hashtbl.t ->
                (Symexpr.t list, string) result;
  f_thresholds : (string * string option * locus) list;
      (* key, construction-site hook label, default locus *)
  f_obligations : (string * Symexpr.t) list -> obligation list;
  f_fault_decides : string list;  (* keys R17's arithmetic mode checks *)
  f_decides : decide_spec list;  (* R17's structural loci *)
  f_like : string option;  (* registry helper carrying the R18 claim *)
}

let ambient = [ Symexpr.t_; Symexpr.ge Symexpr.n_ (Symexpr.int_ 1) ]

let region_to_string region =
  String.concat " && "
    (List.filter_map
       (fun c ->
         (* Skip the ambient t >= 0, n >= 1 noise in messages. *)
         if c = List.nth ambient 0 || c = List.nth ambient 1 then None
         else Some (Symexpr.to_string c ^ " >= 0"))
       region)

(* The declared resilience region, read off the protocol's own
   [props.byzantine_resilience] field (the bound the registry and the
   docs advertise), with the ambient t >= 0, n >= 1. *)
let region_from_props modname mods =
  match Hashtbl.find_opt mods modname with
  | None -> Error (Printf.sprintf "module %s not loaded" modname)
  | Some globals -> (
      match Hashtbl.find_opt globals "protocol" with
      | None -> Error (Printf.sprintf "no %s.protocol" modname)
      | Some expr -> (
          let st = fresh_st ~region:ambient ~mods globals in
          match saturate st expr ~args:[] with
          | VRecord fs -> (
              match List.assoc_opt "props" fs with
              | Some (VRecord props) -> (
                  match List.assoc_opt "byzantine_resilience" props with
                  | Some (VClosure _ as cl) -> (
                      match
                        (match cl with
                        | VClosure c -> apply st c [ sym_n ]
                        | _ -> VUnknown)
                      with
                      | VSym bound ->
                          Ok (Symexpr.ge bound Symexpr.t_ :: ambient)
                      | _ ->
                          Error
                            (Printf.sprintf
                               "%s.protocol byzantine_resilience is not affine"
                               modname))
                  | _ ->
                      Error
                        (Printf.sprintf
                           "%s.protocol has no byzantine_resilience" modname))
              | _ -> Error (Printf.sprintf "%s.protocol has no props" modname))
          | _ ->
              Error
                (Printf.sprintf "%s.protocol did not reduce to a record"
                   modname)
          | exception Raises ->
              Error (Printf.sprintf "%s.protocol raises" modname)))

(* Lewko's protocol declares byzantine_resilience = 0 (the paper's
   adversary silences and resets, it does not corrupt); its resilience
   region is the Theorem 4 regime, read off
   [Thresholds.max_fault_bound]. *)
let region_from_max_fault_bound mods =
  let locus =
    {
      lc_module = "Thresholds";
      lc_fun = "max_fault_bound";
      lc_args = [ ("n", sym_n) ];
      lc_target = Whole;
    }
  in
  match run_locus ~region:ambient mods locus with
  | Ok bound -> Ok (Symexpr.ge bound Symexpr.t_ :: ambient)
  | Error _ as e -> e

let t1 = Symexpr.add Symexpr.t_ (Symexpr.int_ 1)
let need key thresholds f =
  match List.assoc_opt key thresholds with Some e -> f e | None -> []

let rbc_obligations prefix thresholds =
  let intersect_key = prefix ^ "echo_quorum" in
  need intersect_key thresholds (fun echo ->
      [
        {
          o_rule = Rules.R16;
          o_label = "echo-quorum intersection above the fault bound";
          o_goal =
            Symexpr.ge
              (Symexpr.sub (Symexpr.scale 2 echo) Symexpr.n_)
              t1;
        };
        {
          o_rule = Rules.R16;
          o_label = "echo quorum reachable by the honest set";
          o_goal = Symexpr.ge (Symexpr.sub Symexpr.n_ Symexpr.t_) echo;
        };
      ])
  @ need (prefix ^ "ready_resend") thresholds (fun ready ->
        [
          {
            o_rule = Rules.R16;
            o_label = "ready amplification out of the adversary's reach";
            o_goal = Symexpr.ge ready t1;
          };
        ])
  @ need (prefix ^ "accept_quorum") thresholds (fun accept ->
        [
          {
            o_rule = Rules.R16;
            o_label = "accept quorum above 2t";
            o_goal =
              Symexpr.ge accept
                (Symexpr.add (Symexpr.scale 2 Symexpr.t_) (Symexpr.int_ 1));
          };
          {
            o_rule = Rules.R16;
            o_label = "accept quorum reachable by the honest set";
            o_goal = Symexpr.ge (Symexpr.sub Symexpr.n_ Symexpr.t_) accept;
          };
        ])

let families : family list =
  let rbc_locus field =
    {
      lc_module = "Reliable_broadcast";
      lc_fun = "create";
      lc_args = [ ("n", sym_n); ("t", sym_t) ];
      lc_target = Field field;
    }
  in
  [
    {
      f_key = "ben-or";
      f_module = "Ben_or";
      f_requires = [ "Ben_or" ];
      f_region_of = region_from_props "Ben_or";
      f_thresholds =
        [
          ( "decide_at",
            Some "decide_quorum",
            {
              lc_module = "Ben_or";
              lc_fun = "fresh";
              lc_args = [ ("n", sym_n); ("t", sym_t) ];
              lc_target = Field "decide_at";
            } );
          ( "wait_quorum",
            None,
            {
              lc_module = "Ben_or";
              lc_fun = "wait_quorum";
              lc_args = [];
              lc_target = Whole;
            } );
        ];
      f_obligations =
        (fun thresholds ->
          need "decide_at" thresholds (fun decide ->
              [
                {
                  o_rule = Rules.R16;
                  o_label = "decide quorum above the fault bound";
                  o_goal = Symexpr.ge decide t1;
                };
              ])
          @ need "wait_quorum" thresholds (fun wait ->
                [
                  {
                    o_rule = Rules.R16;
                    o_label = "wait-quorum intersection above the fault bound";
                    o_goal =
                      Symexpr.ge
                        (Symexpr.sub (Symexpr.scale 2 wait) Symexpr.n_)
                        t1;
                  };
                  {
                    o_rule = Rules.R16;
                    o_label = "wait quorum reachable by the honest set";
                    o_goal =
                      Symexpr.ge (Symexpr.sub Symexpr.n_ Symexpr.t_) wait;
                  };
                ]));
      f_fault_decides = [ "decide_at" ];
      f_decides =
        [
          {
            d_module = "Ben_or";
            d_fun = "finish_propose_phase";
            d_gates = [ "decide_at" ];
          };
        ];
      f_like = Some "ben_or_like";
    };
    {
      f_key = "bracha";
      f_module = "Bracha";
      f_requires = [ "Bracha"; "Reliable_broadcast" ];
      f_region_of = region_from_props "Bracha";
      f_thresholds =
        [
          ( "decide_at",
            Some "decide_quorum",
            {
              lc_module = "Bracha";
              lc_fun = "init_with";
              lc_args = [ ("n", sym_n); ("t", sym_t) ];
              lc_target = Field "decide_at";
            } );
          ( "adopt_at",
            None,
            {
              lc_module = "Bracha";
              lc_fun = "finish_phase";
              lc_args = [];
              lc_target = Binding "adopt_at";
            } );
          ( "quorum",
            None,
            {
              lc_module = "Bracha";
              lc_fun = "quorum";
              lc_args = [];
              lc_target = Whole;
            } );
          ("rbc_echo_quorum", Some "rbc_echo_quorum", rbc_locus "echo_quorum");
          ( "rbc_ready_resend",
            Some "rbc_ready_resend",
            rbc_locus "ready_resend" );
          ( "rbc_accept_quorum",
            Some "rbc_accept_quorum",
            rbc_locus "accept_quorum" );
        ];
      f_obligations =
        (fun thresholds ->
          need "decide_at" thresholds (fun decide ->
              [
                {
                  o_rule = Rules.R16;
                  o_label = "decide quorum above 2t";
                  o_goal =
                    Symexpr.ge decide
                      (Symexpr.add (Symexpr.scale 2 Symexpr.t_)
                         (Symexpr.int_ 1));
                };
                {
                  o_rule = Rules.R16;
                  o_label = "decide quorum reachable by the honest set";
                  o_goal =
                    Symexpr.ge (Symexpr.sub Symexpr.n_ Symexpr.t_) decide;
                };
              ])
          @ need "adopt_at" thresholds (fun adopt ->
                [
                  {
                    o_rule = Rules.R16;
                    o_label = "adopt threshold above the fault bound";
                    o_goal = Symexpr.ge adopt t1;
                  };
                ])
          @ need "quorum" thresholds (fun wait ->
                [
                  {
                    o_rule = Rules.R16;
                    o_label = "phase-quorum intersection above the fault bound";
                    o_goal =
                      Symexpr.ge
                        (Symexpr.sub (Symexpr.scale 2 wait) Symexpr.n_)
                        t1;
                  };
                ])
          @ rbc_obligations "rbc_" thresholds);
      f_fault_decides = [ "decide_at"; "rbc_accept_quorum" ];
      f_decides =
        [
          {
            d_module = "Bracha";
            d_fun = "finish_phase";
            d_gates = [ "decide_at" ];
          };
          {
            d_module = "Reliable_broadcast";
            d_fun = "evaluate";
            d_gates = [ "accept_quorum" ];
          };
        ];
      f_like = Some "bracha_like";
    };
    {
      f_key = "rbc";
      f_module = "Rbc_once";
      f_requires = [ "Rbc_once"; "Reliable_broadcast" ];
      f_region_of = region_from_props "Rbc_once";
      f_thresholds =
        [
          ("rbc_echo_quorum", Some "rbc_echo_quorum", rbc_locus "echo_quorum");
          ( "rbc_ready_resend",
            Some "rbc_ready_resend",
            rbc_locus "ready_resend" );
          ( "rbc_accept_quorum",
            Some "rbc_accept_quorum",
            rbc_locus "accept_quorum" );
        ];
      f_obligations = rbc_obligations "rbc_";
      f_fault_decides = [ "rbc_accept_quorum" ];
      f_decides =
        [
          {
            d_module = "Reliable_broadcast";
            d_fun = "evaluate";
            d_gates = [ "accept_quorum" ];
          };
        ];
      f_like = Some "rbc_like";
    };
    {
      f_key = "lewko";
      f_module = "Lewko_variant";
      f_requires = [ "Lewko_variant"; "Thresholds" ];
      f_region_of = region_from_max_fault_bound;
      f_thresholds =
        [
          ( "t1",
            None,
            {
              lc_module = "Thresholds";
              lc_fun = "default";
              lc_args = [ ("n", sym_n); ("t", sym_t) ];
              lc_target = Field "t1";
            } );
          ( "t2",
            None,
            {
              lc_module = "Thresholds";
              lc_fun = "default";
              lc_args = [ ("n", sym_n); ("t", sym_t) ];
              lc_target = Field "t2";
            } );
          ( "t3",
            None,
            {
              lc_module = "Thresholds";
              lc_fun = "default";
              lc_args = [ ("n", sym_n); ("t", sym_t) ];
              lc_target = Field "t3";
            } );
        ];
      f_obligations =
        (fun thresholds ->
          match
            ( List.assoc_opt "t1" thresholds,
              List.assoc_opt "t2" thresholds,
              List.assoc_opt "t3" thresholds )
          with
          | Some e1, Some e2, Some e3 ->
              [
                {
                  o_rule = Rules.R16;
                  o_label = "T1 collectable: n - 2t >= T1";
                  o_goal =
                    Symexpr.ge
                      (Symexpr.sub Symexpr.n_ (Symexpr.scale 2 Symexpr.t_))
                      e1;
                };
                {
                  o_rule = Rules.R16;
                  o_label = "T1 >= T2";
                  o_goal = Symexpr.ge e1 e2;
                };
                {
                  o_rule = Rules.R16;
                  o_label = "T2 >= T3 + t";
                  o_goal = Symexpr.ge e2 (Symexpr.add e3 Symexpr.t_);
                };
                {
                  o_rule = Rules.R16;
                  o_label = "2*T3 > n (adoption quorums intersect)";
                  o_goal = Symexpr.gt (Symexpr.scale 2 e3) Symexpr.n_;
                };
                {
                  o_rule = Rules.R16;
                  o_label = "2*T3 > T1";
                  o_goal = Symexpr.gt (Symexpr.scale 2 e3) e1;
                };
                {
                  o_rule = Rules.R16;
                  o_label = "T3 positive";
                  o_goal = Symexpr.ge e3 (Symexpr.int_ 1);
                };
                {
                  o_rule = Rules.R16;
                  o_label = "T1 reachable by the honest set";
                  o_goal = Symexpr.ge (Symexpr.sub Symexpr.n_ Symexpr.t_) e1;
                };
                {
                  o_rule = Rules.R16;
                  o_label = "decision threshold above the fault bound";
                  o_goal = Symexpr.ge e2 t1;
                };
              ]
          | _ -> []);
      f_fault_decides = [ "t2" ];
      f_decides =
        [
          {
            d_module = "Lewko_variant";
            d_fun = "process_round";
            d_gates = [ "t2" ];
          };
        ];
      f_like = None;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Construction sites.                                                 *)

type hook_state =
  | Hooked of Symexpr.t
  | Hooked_record of (string * Symexpr.t) list
  | Vetted
      (* instance-specific value produced by a validating smart
         constructor (Thresholds.default/relaxed raise on infeasible
         triples), so feasibility is enforced at construction time *)
  | Opaque of string
  | Defaulted

type site = {
  s_name : string;  (* protocol instance name, e.g. "ben-or!quorum-1" *)
  s_loc : Location.t;
  s_path : string;
  s_hooks : (string * hook_state) list;
}

let find_fn units modname name =
  List.find_map
    (fun (u : Cmt_loader.unit_info) ->
      if not (String.equal u.modname modname) then None
      else
        List.find_map
          (fun (item : Typedtree.structure_item) ->
            match item.str_desc with
            | Tstr_value (_, vbs) ->
                List.find_map
                  (fun (vb : Typedtree.value_binding) ->
                    match vb.vb_pat.pat_desc with
                    | Tpat_var (id, _) when String.equal (Ident.name id) name
                      ->
                        Some (vb.vb_expr, vb.vb_loc, u.path)
                    | _ -> None)
                  vbs
            | _ -> None)
          u.structure.str_items)
    units

(* Reduce one hook argument ([?decide_quorum:(fun ~n ~t -> ...)],
   elaborated by the typechecker to [Some (fun ...)]) to its symbolic
   threshold. *)
let validating_constructor (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
      match List.rev (Callgraph.path_components p) with
      | ("default" | "relaxed") :: "Thresholds" :: _ -> true
      | _ -> false)
  | _ -> false

let hook_value st (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, c, []) when c.Types.cstr_name = "None" -> Defaulted
  | Texp_construct (_, c, [ lam ]) when c.Types.cstr_name = "Some" -> (
      if validating_constructor lam then Vetted
      else
        match
        saturate st lam
          ~args:[ ("n", VSym Symexpr.n_); ("t", VSym Symexpr.t_) ]
      with
      | VSym s -> Hooked s
      | VRecord fs ->
          let syms =
            List.filter_map
              (fun (k, v) -> match v with VSym s -> Some (k, s) | _ -> None)
              fs
          in
          if syms = [] then Opaque "hook reduces to an opaque record"
          else Hooked_record syms
      | _ -> Opaque "hook does not reduce to affine form"
      | exception Raises -> Opaque "hook raises")
  | _ -> Opaque "hook is not a literal option"

let scan_sites mods units =
  let sites = ref [] in
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      let globals =
        Option.value ~default:(Hashtbl.create 1)
          (Hashtbl.find_opt mods u.modname)
      in
      let expr self (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            let family =
              match List.rev (Callgraph.path_components p) with
              | [ "protocol" ] ->
                  List.find_opt
                    (fun f -> String.equal f.f_module u.modname)
                    families
              | "protocol" :: m :: _ ->
                  List.find_opt (fun f -> String.equal f.f_module m) families
              | _ -> None
            in
            match family with
            | None -> ()
            | Some f ->
                let st = fresh_st ~region:ambient ~mods globals in
                let name = ref f.f_key in
                let hooks = ref [] in
                List.iter
                  (fun ((lbl : Asttypes.arg_label), arg) ->
                    match (lbl, arg) with
                    | Asttypes.Optional "name", Some a -> (
                        match (eval st [] a : value) with
                        | VConstruct ("Some", [ VString s ]) -> name := s
                        | _ -> ())
                    | Asttypes.Optional l, Some a
                      when List.exists
                             (fun (_, hook, _) -> hook = Some l)
                             f.f_thresholds
                           || String.equal l "thresholds" ->
                        hooks := (l, hook_value st a) :: !hooks
                    | _ -> ())
                  args;
                sites :=
                  ( f.f_key,
                    {
                      s_name = !name;
                      s_loc = e.exp_loc;
                      s_path = u.path;
                      s_hooks = List.rev !hooks;
                    } )
                  :: !sites)
        | _ -> ());
        Tast_iterator.default_iterator.expr self e
      in
      let iterator = { Tast_iterator.default_iterator with expr } in
      iterator.structure iterator u.structure)
    units;
  List.rev !sites

(* ------------------------------------------------------------------ *)
(* R17, structural mode: every decide function must construct its
   [Some _] under a >=/> comparison that mentions the quorum gate.     *)

let mentions_gate gates (e : Typedtree.expression) =
  let found = ref false in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) when List.mem (Ident.name id) gates ->
        found := true
    | Texp_field (_, _, lbl) when List.mem lbl.Types.lbl_name gates ->
        found := true
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let iterator = { Tast_iterator.default_iterator with expr } in
  iterator.expr iterator e;
  !found

let gate_comparison gates (cond : Typedtree.expression) =
  let found = ref false in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        let name = Callgraph.stdlib_name p in
        if
          (String.equal name ">=" || String.equal name ">")
          && List.exists
               (fun (_, a) ->
                 match a with Some a -> mentions_gate gates a | None -> false)
               args
        then found := true
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let iterator = { Tast_iterator.default_iterator with expr } in
  iterator.expr iterator cond;
  !found

let structural_gated ~gates (body : Typedtree.expression) =
  let has_some = ref false in
  let gated_some = ref false in
  let gated = ref false in
  let expr self (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ifthenelse (c, then_, else_) ->
        let saved = !gated in
        self.Tast_iterator.expr self c;
        if gate_comparison gates c then gated := true;
        self.Tast_iterator.expr self then_;
        Option.iter (self.Tast_iterator.expr self) else_;
        gated := saved
    | Texp_construct (_, cstr, _) when cstr.Types.cstr_name = "Some" ->
        has_some := true;
        if !gated then gated_some := true;
        Tast_iterator.default_iterator.expr self e
    | _ -> Tast_iterator.default_iterator.expr self e
  in
  let iterator = { Tast_iterator.default_iterator with expr } in
  iterator.expr iterator body;
  (!has_some, !gated_some)

(* ------------------------------------------------------------------ *)
(* R18: the registry's resilience claim.  The mcheck registry helpers
   ([ben_or_like], ...) declare each protocol's tolerated Byzantine
   bound through [resilience_notes ~byz:(fun n -> ...)]; the claim
   region is where that bound admits the fault count. *)

let registry_region mods units family =
  match family.f_like with
  | None -> None
  | Some helper -> (
      let found =
        List.find_map
          (fun (u : Cmt_loader.unit_info) ->
          match find_fn units u.modname helper with
          | Some (expr, _, _) -> Some (u.modname, expr)
          | None -> None)
          units
      in
      match found with
      | None -> None
      | Some (modname, helper_expr) ->
          let globals =
            Option.value ~default:(Hashtbl.create 1)
              (Hashtbl.find_opt mods modname)
          in
          let byz = ref None in
          let expr self (e : Typedtree.expression) =
            (match e.exp_desc with
            | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
              when (match List.rev (Callgraph.path_components p) with
                   | "resilience_notes" :: _ -> true
                   | _ -> false) ->
                List.iter
                  (fun ((lbl : Asttypes.arg_label), arg) ->
                    match (lbl, arg) with
                    | Asttypes.Labelled "byz", Some lam -> (
                        let st = fresh_st ~region:ambient ~mods globals in
                        match
                          saturate st lam ~args:[ ("n", VSym Symexpr.n_) ]
                        with
                        | VSym bound -> byz := Some bound
                        | _ | (exception Raises) -> ())
                    | _ -> ())
                  args
            | _ -> ());
            Tast_iterator.default_iterator.expr self e
          in
          let iterator = { Tast_iterator.default_iterator with expr } in
          iterator.expr iterator helper_expr;
          Option.map
            (fun bound -> Symexpr.ge bound Symexpr.t_ :: ambient)
            !byz)

(* ------------------------------------------------------------------ *)
(* Obligation discharge.                                               *)

let resolve_threshold site defaults (key, hook_label, _locus) =
  let default () =
    match List.assoc_opt key defaults with
    | Some (Ok s) -> `Sym s
    | Some (Error why) -> `Err why
    | None -> `Err (Printf.sprintf "no default locus for %s" key)
  in
  let from_record l =
    match List.assoc_opt l site.s_hooks with
    | Some (Hooked_record fs) -> (
        match List.assoc_opt key fs with
        | Some s -> (
            (* A record of bare constants is an instance-specific
               triple (built for one concrete n, t the analyzer cannot
               see); region-wide obligations do not apply to it, and
               the validating constructor already checked it. *)
            match Symexpr.as_affine s with
            | Some (0, 0, _) -> `Skip
            | _ -> `Sym s)
        | None -> `Opaque (Printf.sprintf "%s record lacks field %s" l key))
    | Some Vetted -> `Skip
    | Some (Opaque why) -> `Opaque why
    | Some (Hooked _) -> `Opaque (Printf.sprintf "%s hook is not a record" l)
    | Some Defaulted | None -> default ()
  in
  match hook_label with
  | Some l -> (
      match List.assoc_opt l site.s_hooks with
      | Some (Hooked s) -> `Sym s
      | Some Vetted -> `Skip
      | Some (Opaque why) -> `Opaque why
      | Some (Hooked_record _) ->
          `Opaque (Printf.sprintf "%s hook is record-valued" l)
      | Some Defaulted | None -> default ())
  | None -> from_record "thresholds"

let discharge ~region obligations ~on_fail ~on_unknown =
  List.iter
    (fun o ->
      match Symexpr.implies ~region o.o_goal with
      | Symexpr.Holds -> ()
      | Symexpr.Fails { n; t } -> on_fail o n t
      | Symexpr.Unknown why -> on_unknown o why
      | exception Symexpr.Undecidable why -> on_unknown o why)
    obligations

(* A decide threshold the fault set can satisfy alone: a point of the
   region with t >= 1 and threshold <= t. *)
let fault_witness ~region threshold =
  match
    Symexpr.solve
      (Symexpr.ge Symexpr.t_ (Symexpr.int_ 1)
      :: Symexpr.ge Symexpr.t_ threshold
      :: region)
  with
  | Some (n, t) -> Some (n, t)
  | None -> None
  | exception Symexpr.Undecidable _ -> None

let analyze_family ~report mods units sites family =
  if List.for_all (fun m -> Hashtbl.mem mods m) family.f_requires then
    let fallback =
      match find_fn units family.f_module "protocol" with
      | Some (_, loc, path) -> Some (loc, path)
      | None -> None
    in
    match family.f_region_of mods with
    | Error why -> (
        match fallback with
        | Some (loc, path) ->
            report ~path ~loc Rules.R16
              (Printf.sprintf
                 "%s: could not establish the resilience region (%s)"
                 family.f_key why)
        | None -> ())
    | Ok region ->
        let defaults =
          List.map
            (fun (key, _, locus) -> (key, run_locus ~region mods locus))
            family.f_thresholds
        in
        let family_sites =
          match
            List.filter_map
              (fun (k, s) ->
                if String.equal k family.f_key then Some s else None)
              sites
          with
          | [] -> (
              (* No construction site in the tree: still prove the
                 defaults, anchored at the protocol definition. *)
              match fallback with
              | Some (loc, path) ->
                  [
                    {
                      s_name = family.f_key;
                      s_loc = loc;
                      s_path = path;
                      s_hooks = [];
                    };
                  ]
              | None -> [])
          | ss -> ss
        in
        let reg_region = registry_region mods units family in
        List.iter
          (fun site ->
            let report_site rule msg =
              report ~path:site.s_path ~loc:site.s_loc rule msg
            in
            let thresholds =
              List.filter_map
                (fun ((key, _, _) as spec) ->
                  match resolve_threshold site defaults spec with
                  | `Sym s -> Some (key, s)
                  | `Skip -> None
                  | `Err why ->
                      report_site Rules.R16
                        (Printf.sprintf
                           "%s: threshold %s could not be extracted (%s)"
                           site.s_name key why);
                      None
                  | `Opaque why ->
                      report_site Rules.R16
                        (Printf.sprintf
                           "%s: threshold %s at this construction site is \
                            not analyzable (%s)"
                           site.s_name key why);
                      None)
                family.f_thresholds
            in
            let obligations = family.f_obligations thresholds in
            discharge ~region obligations
              ~on_fail:(fun o n t ->
                report_site o.o_rule
                  (Printf.sprintf
                     "%s: obligation \"%s\" fails at n=%d, t=%d inside the \
                      declared region [%s]"
                     site.s_name o.o_label n t (region_to_string region)))
              ~on_unknown:(fun o why ->
                report_site o.o_rule
                  (Printf.sprintf "%s: obligation \"%s\" is undecidable (%s)"
                     site.s_name o.o_label why));
            List.iter
              (fun key ->
                match List.assoc_opt key thresholds with
                | None -> ()
                | Some threshold -> (
                    match fault_witness ~region threshold with
                    | None -> ()
                    | Some (n, t) ->
                        report_site Rules.R17
                          (Printf.sprintf
                             "%s: decide threshold %s = %s can be met by \
                              the fault set alone (e.g. n=%d, t=%d)"
                             site.s_name key
                             (Symexpr.to_string threshold)
                             n t)))
              family.f_fault_decides;
            match reg_region with
            | None -> ()
            | Some rr ->
                discharge ~region:rr obligations
                  ~on_fail:(fun o n t ->
                    report_site Rules.R18
                      (Printf.sprintf
                         "%s: the registry resilience claim [%s] admits \
                          n=%d, t=%d where obligation \"%s\" fails"
                         site.s_name (region_to_string rr) n t o.o_label))
                  ~on_unknown:(fun o why ->
                    report_site Rules.R18
                      (Printf.sprintf
                         "%s: obligation \"%s\" is undecidable over the \
                          registry resilience claim (%s)"
                         site.s_name o.o_label why));
                List.iter
                  (fun key ->
                    match List.assoc_opt key thresholds with
                    | None -> ()
                    | Some threshold -> (
                        match fault_witness ~region:rr threshold with
                        | None -> ()
                        | Some (n, t) ->
                            report_site Rules.R18
                              (Printf.sprintf
                                 "%s: the registry resilience claim [%s] \
                                  admits n=%d, t=%d where decide threshold \
                                  %s is met by the fault set alone"
                                 site.s_name (region_to_string rr) n t key)))
                  family.f_fault_decides)
          family_sites;
        List.iter
          (fun d ->
            match find_fn units d.d_module d.d_fun with
            | None -> ()
            | Some (expr, loc, path) ->
                let has_some, gated_some =
                  structural_gated ~gates:d.d_gates expr
                in
                if has_some && not gated_some then
                  report ~path ~loc Rules.R17
                    (Printf.sprintf
                       "%s.%s decides (constructs Some _) without a \
                        dominating >= comparison against its quorum gate \
                        (%s)"
                       d.d_module d.d_fun
                       (String.concat ", " d.d_gates)))
          family.f_decides

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let analyze_units units =
  let mods = module_globals units in
  let sites = scan_sites mods units in
  let suppressions = Hashtbl.create 16 in
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      match u.source with
      | Some src ->
          Hashtbl.replace suppressions u.path
            (Rules.suppressions_of_source src)
      | None -> ())
    units;
  let out = ref [] in
  let report ~path ~loc rule message =
    if Rules.applies rule (Rules.scope_of_path path) then begin
      let start = loc.Location.loc_start in
      let line = start.Lexing.pos_lnum in
      let col = start.Lexing.pos_cnum - start.Lexing.pos_bol in
      let silenced =
        match Hashtbl.find_opt suppressions path with
        | Some table -> Rules.suppressed table ~line rule
        | None -> false
      in
      if not silenced then
        out := { Rules.path; line; col; rule; message } :: !out
    end
  in
  List.iter (analyze_family ~report mods units sites) families;
  List.sort_uniq Rules.compare_diagnostic !out

let analyze (load : Cmt_loader.load) = analyze_units load.units

let modname_of_path path =
  Filename.basename path |> Filename.remove_extension |> String.capitalize_ascii

let check_source ~path source =
  match Typed_lint.typecheck_source ~path source with
  | Error e -> Error e
  | Ok structure ->
      Ok
        (analyze_units
           [
             {
               Cmt_loader.modname = modname_of_path path;
               path;
               structure;
               source = Some source;
             };
           ])

(* ------------------------------------------------------------------ *)
(* Test-facing view of what the evaluator extracted.                   *)

type extraction = {
  e_family : string;
  e_region : Symexpr.t list;
  e_defaults : (string * (Symexpr.t, string) result) list;
}

let extractions units =
  let mods = module_globals units in
  List.filter_map
    (fun f ->
      if not (List.for_all (fun m -> Hashtbl.mem mods m) f.f_requires) then
        None
      else
        match f.f_region_of mods with
        | Error _ -> None
        | Ok region ->
            Some
              {
                e_family = f.f_key;
                e_region = region;
                e_defaults =
                  List.map
                    (fun (key, _, locus) ->
                      (key, run_locus ~region mods locus))
                    f.f_thresholds;
              })
    families


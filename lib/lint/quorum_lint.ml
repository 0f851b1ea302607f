(* The symbolic quorum-safety analyzer (R16-R18).

   The cost layer (R11-R15) asks "how much does a transition cost"; this
   layer asks "is the threshold arithmetic sound for every (n, t) the
   protocol claims to tolerate".  Every protocol family declares its
   thresholds once, as {!Protocols.Symexpr} terms in a
   {!Protocols.Quorums.t} that the protocol itself evaluates at [init],
   and the mcheck registry carries each instance's declaration next to
   its advertised resilience claim.  This layer discharges the
   family's obligations (quorum intersection above the fault bound,
   decide thresholds out of the adversary's unilateral reach, the
   registry claim matching the arithmetic) on those declarations with
   the exact integer decision procedure.  A failed obligation comes
   with a concrete witness point (n, t) inside the declared region.

   The one thing read from the typed trees is the structural half of
   R17: each family's gate functions must decide under a >=/>
   comparison against a declared threshold, and no gate comparison may
   compute its bound inline from n, t or fault_bound. *)

open Protocols

type entry = { decl : Quorums.t; claim : Symexpr.t option }

(* ------------------------------------------------------------------ *)
(* Family specifications.                                              *)

type obligation = { label : string; goal : Symexpr.t (* must be >= 0 *) }

type decide_spec = {
  d_module : string;
  d_fun : string;  (* the gate function whose Some-construction decides *)
  d_gates : string list;  (* declared keys that count as quorum gates *)
}

type family = {
  f_key : string;
  f_keys : string list;  (* thresholds every declaration must name *)
  f_obligations : (string * Symexpr.t) list -> obligation list;
  f_fault_decides : string list;  (* keys R17's arithmetic mode checks *)
  f_decides : decide_spec list;  (* R17's structural loci *)
}

let ambient = [ Symexpr.t_; Symexpr.ge Symexpr.n_ (Symexpr.int_ 1) ]
let region_of bound = Symexpr.ge bound Symexpr.t_ :: ambient

let region_to_string region =
  String.concat " && "
    (List.filter_map
       (fun c ->
         (* Skip the ambient t >= 0, n >= 1 noise in messages. *)
         if List.mem c ambient then None
         else Some (Symexpr.to_string c ^ " >= 0"))
       region)

let t1 = Symexpr.add Symexpr.t_ (Symexpr.int_ 1)
let two_t1 = Symexpr.add (Symexpr.scale 2 Symexpr.t_) (Symexpr.int_ 1)
let honest = Symexpr.sub Symexpr.n_ Symexpr.t_

(* Two [q]-quorums intersect in at least t + 1 pids. *)
let intersect q = Symexpr.ge (Symexpr.sub (Symexpr.scale 2 q) Symexpr.n_) t1

let need key thresholds f =
  match List.assoc_opt key thresholds with Some e -> f e | None -> []

let rbc_obligations thresholds =
  need "rbc_echo_quorum" thresholds (fun echo ->
      [
        {
          label = "echo-quorum intersection above the fault bound";
          goal = intersect echo;
        };
        {
          label = "echo quorum reachable by the honest set";
          goal = Symexpr.ge honest echo;
        };
      ])
  @ need "rbc_ready_resend" thresholds (fun ready ->
        [
          {
            label = "ready amplification out of the adversary's reach";
            goal = Symexpr.ge ready t1;
          };
        ])
  @ need "rbc_accept_quorum" thresholds (fun accept ->
        [
          { label = "accept quorum above 2t"; goal = Symexpr.ge accept two_t1 };
          {
            label = "accept quorum reachable by the honest set";
            goal = Symexpr.ge honest accept;
          };
        ])

let rbc_keys = [ "rbc_echo_quorum"; "rbc_ready_resend"; "rbc_accept_quorum" ]

let rbc_decide =
  {
    d_module = "Reliable_broadcast";
    d_fun = "evaluate";
    d_gates = [ "rbc_accept_quorum" ];
  }

let families =
  [
    {
      f_key = "ben-or";
      f_keys = [ "decide_at"; "wait_quorum" ];
      f_obligations =
        (fun thresholds ->
          need "decide_at" thresholds (fun decide ->
              [
                {
                  label = "decide quorum above the fault bound";
                  goal = Symexpr.ge decide t1;
                };
              ])
          @ need "wait_quorum" thresholds (fun wait ->
                [
                  {
                    label = "wait-quorum intersection above the fault bound";
                    goal = intersect wait;
                  };
                  {
                    label = "wait quorum reachable by the honest set";
                    goal = Symexpr.ge honest wait;
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
    };
    {
      f_key = "bracha";
      f_keys = [ "decide_at"; "adopt_at"; "quorum" ] @ rbc_keys;
      f_obligations =
        (fun thresholds ->
          need "decide_at" thresholds (fun decide ->
              [
                {
                  label = "decide quorum above 2t";
                  goal = Symexpr.ge decide two_t1;
                };
                {
                  label = "decide quorum reachable by the honest set";
                  goal = Symexpr.ge honest decide;
                };
              ])
          @ need "adopt_at" thresholds (fun adopt ->
                [
                  {
                    label = "adopt threshold above the fault bound";
                    goal = Symexpr.ge adopt t1;
                  };
                ])
          @ need "quorum" thresholds (fun wait ->
                [
                  {
                    label = "phase-quorum intersection above the fault bound";
                    goal = intersect wait;
                  };
                ])
          @ rbc_obligations thresholds);
      f_fault_decides = [ "decide_at"; "rbc_accept_quorum" ];
      f_decides =
        [
          {
            d_module = "Bracha";
            d_fun = "finish_phase";
            d_gates = [ "decide_at" ];
          };
          rbc_decide;
        ];
    };
    {
      f_key = "rbc";
      f_keys = rbc_keys;
      f_obligations = rbc_obligations;
      f_fault_decides = [ "rbc_accept_quorum" ];
      f_decides = [ rbc_decide ];
    };
    {
      f_key = "lewko";
      f_keys = [ "t1"; "t2"; "t3" ];
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
                  label = "T1 collectable: n - 2t >= T1";
                  goal =
                    Symexpr.ge
                      (Symexpr.sub Symexpr.n_ (Symexpr.scale 2 Symexpr.t_))
                      e1;
                };
                { label = "T1 >= T2"; goal = Symexpr.ge e1 e2 };
                {
                  label = "T2 >= T3 + t";
                  goal = Symexpr.ge e2 (Symexpr.add e3 Symexpr.t_);
                };
                {
                  label = "2*T3 > n (adoption quorums intersect)";
                  goal = Symexpr.gt (Symexpr.scale 2 e3) Symexpr.n_;
                };
                {
                  label = "2*T3 > T1";
                  goal = Symexpr.gt (Symexpr.scale 2 e3) e1;
                };
                { label = "T3 positive"; goal = Symexpr.ge e3 (Symexpr.int_ 1) };
                {
                  label = "T1 reachable by the honest set";
                  goal = Symexpr.ge honest e1;
                };
                {
                  label = "decision threshold above the fault bound";
                  goal = Symexpr.ge e2 t1;
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
    };
  ]

(* ------------------------------------------------------------------ *)
(* R16-R18 over a declaration.                                         *)

let discharge ~region obligations ~on_fail ~on_unknown =
  List.iter
    (fun o ->
      match Symexpr.implies ~region o.goal with
      | Symexpr.Holds -> ()
      | Symexpr.Fails { n; t } -> on_fail o n t
      | Symexpr.Unknown why -> on_unknown o why
      | exception Symexpr.Undecidable why -> on_unknown o why)
    obligations

(* A decide threshold the fault set can satisfy alone: a point of the
   region with t >= 1 and threshold <= t. *)
let fault_witness ~region threshold =
  try
    Symexpr.solve
      (Symexpr.ge Symexpr.t_ (Symexpr.int_ 1)
      :: Symexpr.ge Symexpr.t_ threshold
      :: region)
  with Symexpr.Undecidable _ -> None

let fault_decides family thresholds ~region f =
  List.iter
    (fun key ->
      match List.assoc_opt key thresholds with
      | None -> ()
      | Some threshold -> (
          match fault_witness ~region threshold with
          | None -> ()
          | Some (n, t) -> f key threshold n t))
    family.f_fault_decides

let check_entry report { decl; claim } =
  let name = decl.Quorums.name in
  let thresholds = decl.thresholds in
  match List.find_opt (fun f -> String.equal f.f_key decl.family) families with
  | None ->
      report Rules.R16
        (Printf.sprintf "%s: unknown threshold family %S" name decl.family)
  | Some family ->
      List.iter
        (fun key ->
          if not (List.mem_assoc key thresholds) then
            report Rules.R16
              (Printf.sprintf "%s: the declaration lacks threshold %s" name key))
        family.f_keys;
      let region = region_of decl.resilience in
      let obligations = family.f_obligations thresholds in
      discharge ~region obligations
        ~on_fail:(fun o n t ->
          report Rules.R16
            (Printf.sprintf
               "%s: obligation \"%s\" fails at n=%d, t=%d inside the declared \
                region [%s]"
               name o.label n t (region_to_string region)))
        ~on_unknown:(fun o why ->
          report Rules.R16
            (Printf.sprintf "%s: obligation \"%s\" is undecidable (%s)" name
               o.label why));
      fault_decides family thresholds ~region (fun key threshold n t ->
          report Rules.R17
            (Printf.sprintf
               "%s: decide threshold %s = %s can be met by the fault set \
                alone (e.g. n=%d, t=%d)"
               name key
               (Symexpr.to_string threshold)
               n t));
      Option.iter
        (fun bound ->
          let rr = region_of bound in
          discharge ~region:rr obligations
            ~on_fail:(fun o n t ->
              report Rules.R18
                (Printf.sprintf
                   "%s: the registry resilience claim [%s] admits n=%d, t=%d \
                    where obligation \"%s\" fails"
                   name (region_to_string rr) n t o.label))
            ~on_unknown:(fun o why ->
              report Rules.R18
                (Printf.sprintf
                   "%s: obligation \"%s\" is undecidable over the registry \
                    resilience claim (%s)"
                   name o.label why));
          fault_decides family thresholds ~region:rr (fun key _ n t ->
              report Rules.R18
                (Printf.sprintf
                   "%s: the registry resilience claim [%s] admits n=%d, t=%d \
                    where decide threshold %s is met by the fault set alone"
                   name (region_to_string rr) n t key)))
        claim

let decl_location decl =
  let path, line, col, _ = decl.Quorums.pos in
  (path, line, col)

(* ------------------------------------------------------------------ *)
(* R17, structural mode: every gate function must construct its
   [Some _] under a >=/> comparison that mentions a declared gate, and
   no >=/> in it may read n, t or fault_bound: a bound computed inline
   bypasses the declaration the arithmetic above was proved on.        *)

let exists_subexpr pred (e : Typedtree.expression) =
  let found = ref false in
  let expr self (e : Typedtree.expression) =
    if pred e then found := true;
    Tast_iterator.default_iterator.expr self e
  in
  let iterator = { Tast_iterator.default_iterator with expr } in
  iterator.expr iterator e;
  !found

let mentions_gate gates =
  exists_subexpr (fun e ->
      match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> List.mem (Ident.name id) gates
      | Texp_field (_, _, lbl) -> List.mem lbl.Types.lbl_name gates
      | _ -> false)

let parameters = [ "n"; "t"; "fault_bound" ]

let is_int (e : Typedtree.expression) =
  match Types.get_desc e.exp_type with
  | Tconstr (p, [], _) -> Path.same p Predef.path_int
  | _ -> false

let reads_parameter =
  exists_subexpr (fun e ->
      match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) ->
          List.mem (Ident.name id) parameters && is_int e
      | Texp_field (_, _, lbl) -> List.mem lbl.Types.lbl_name parameters
      | _ -> false)

(* The operands of a >=/> application, or [] for anything else. *)
let comparison_operands (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
      match Callgraph.stdlib_name p with
      | ">=" | ">" -> List.filter_map snd args
      | _ -> [])
  | _ -> []

let gate_comparison gates =
  exists_subexpr (fun e ->
      List.exists (mentions_gate gates) (comparison_operands e))

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

let inline_bounds (body : Typedtree.expression) =
  let sites = ref [] in
  let expr self (e : Typedtree.expression) =
    if List.exists reads_parameter (comparison_operands e) then
      sites := e.exp_loc :: !sites;
    Tast_iterator.default_iterator.expr self e
  in
  let iterator = { Tast_iterator.default_iterator with expr } in
  iterator.expr iterator body;
  List.rev !sites

let find_fn (u : Cmt_loader.unit_info) name =
  List.find_map
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.find_map
            (fun (vb : Typedtree.value_binding) ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) when String.equal (Ident.name id) name ->
                  Some (vb.vb_expr, vb.vb_loc)
              | _ -> None)
            vbs
      | _ -> None)
    u.structure.str_items

let position (loc : Location.t) =
  let start = loc.loc_start in
  (start.Lexing.pos_lnum, start.pos_cnum - start.pos_bol)

let check_gates report units =
  let specs =
    List.sort_uniq compare (List.concat_map (fun f -> f.f_decides) families)
  in
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      List.iter
        (fun d ->
          if String.equal u.modname d.d_module then
            match find_fn u d.d_fun with
            | None -> ()
            | Some (expr, loc) ->
                let gates = String.concat ", " d.d_gates in
                let has_some, gated_some = structural_gated ~gates:d.d_gates expr in
                if has_some && not gated_some then
                  report ~path:u.path (position loc) Rules.R17
                    (Printf.sprintf
                       "%s.%s decides (constructs Some _) without a \
                        dominating >= comparison against its quorum gate \
                        (%s)"
                       d.d_module d.d_fun gates);
                List.iter
                  (fun site ->
                    report ~path:u.path (position site) Rules.R17
                      (Printf.sprintf
                         "%s.%s compares against a bound computed inline \
                          from n, t or fault_bound; read the declared \
                          threshold (%s) instead"
                         d.d_module d.d_fun gates))
                  (inline_bounds expr))
        specs)
    units

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let check_declarations registry =
  let out = ref [] in
  List.iter
    (fun e ->
      let path, line, col = decl_location e.decl in
      check_entry
        (fun rule message ->
          out := { Rules.path; line; col; rule; message } :: !out)
        e)
    registry;
  List.sort_uniq Rules.compare_diagnostic !out

let analyze_units registry units =
  let suppressions = Hashtbl.create 16 in
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      Hashtbl.replace suppressions u.path
        (Rules.suppressions_of_source (Option.value ~default:"" u.source)))
    units;
  let gates = ref [] in
  check_gates
    (fun ~path (line, col) rule message ->
      gates := { Rules.path; line; col; rule; message } :: !gates)
    units;
  (* A declaration is in scope when its source file was loaded, so
     [--dir] selects declarations by where they are written. *)
  let loaded e =
    let path, _, _ = decl_location e.decl in
    Hashtbl.mem suppressions path
  in
  let kept (d : Rules.diagnostic) =
    Rules.applies d.rule (Rules.scope_of_path d.path)
    && not (Rules.suppressed (Hashtbl.find suppressions d.path) ~line:d.line d.rule)
  in
  check_declarations (List.filter loaded registry) @ !gates
  |> List.filter kept
  |> List.sort_uniq Rules.compare_diagnostic

let analyze registry (load : Cmt_loader.load) = analyze_units registry load.units

let check_source ~path source =
  match Typed_lint.typecheck_source ~path source with
  | Error e -> Error e
  | Ok structure ->
      let modname =
        Filename.basename path |> Filename.remove_extension
        |> String.capitalize_ascii
      in
      Ok
        (analyze_units []
           [ { Cmt_loader.modname; path; structure; source = Some source } ])

type config = {
  pure_fields : string list;
  raise_allowlist : string list;
  message_type_names : string list;
  exempt_modules : string list;
}

let default_config =
  {
    pure_fields =
      [ "init"; "outgoing"; "on_deliver"; "on_reset"; "output"; "observe";
        "state_core"; "message_bit"; "message_round"; "message_origin";
        "rewrite_bit" ];
    raise_allowlist = [ "Invalid_argument"; "Assert_failure" ];
    message_type_names = [ "msg"; "message"; "payload"; "vote" ];
    exempt_modules = Effects.default_exempt_modules;
  }

(* ------------------------------------------------------------------ *)
(* Type helpers.                                                       *)

let rec first_arrow_arg ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | Types.Tpoly (t, _) -> first_arrow_arg t
  | _ -> None

let is_immediate ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      Path.same p Predef.path_int || Path.same p Predef.path_bool
      || Path.same p Predef.path_char || Path.same p Predef.path_unit
  | _ -> false

let type_to_string ty =
  match Format.asprintf "%a" Printtyp.type_expr ty with
  | s -> s
  | exception _ -> "?"

(* ------------------------------------------------------------------ *)
(* R1/R2/R5/R6: ambient sources, named by their resolved path
   ([Callgraph.stdlib_name], so [Stdlib.Random.int], [Random.int] and
   [let open Random in int] all read "Random.int").                     *)

let r1_banned name =
  String.starts_with ~prefix:"Random." name
  || List.mem name [ "Sys.time"; "Unix.gettimeofday" ]

let r2_banned name = List.mem name [ "Hashtbl.hash"; "Hashtbl.seeded_hash" ]

let r5_banned name =
  List.mem name
    [ "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
      "print_string"; "print_endline"; "print_newline"; "print_int";
      "print_char"; "print_float"; "print_bytes"; "prerr_string";
      "prerr_endline"; "prerr_newline" ]
  (* The Format std_formatter helpers print just as surely as
     print_string does. *)
  || String.starts_with ~prefix:"Format.print_" name

(* fprintf is fine against a caller-supplied formatter and banned
   against an ambient channel. *)
let r5_fprintf name = List.mem name [ "Printf.fprintf"; "Format.fprintf" ]

let r5_ambient_channel name =
  List.mem name
    [ "stdout"; "stderr"; "Format.std_formatter"; "Format.err_formatter" ]

let r6_banned name =
  List.exists
    (fun m -> String.starts_with ~prefix:(m ^ ".") name)
    [ "Domain"; "Atomic"; "Thread"; "Mutex"; "Condition"; "Semaphore" ]

(* The one sanctioned home of the multicore primitives. *)
let r6_exempt path =
  Cmt_loader.normalize_source_path path = Some "lib/par_sweep/par_sweep.ml"

(* ------------------------------------------------------------------ *)
(* R7: polymorphic compare at a non-immediate type.                    *)

(* The unqualified pervasives always reach the typed tree as
   [Stdlib.compare] etc., so a locally-defined [compare] (path
   [Pident]) never matches. *)
let polyeq_name path =
  match Callgraph.path_components path with
  | [ "Stdlib"; (("compare" | "=" | "<>") as op) ] -> Some op
  | _ -> None

(* ------------------------------------------------------------------ *)
(* R9: stream role analysis.                                           *)

let stream_op path =
  match List.rev (Callgraph.path_components path) with
  | op :: "Stream" :: _ -> (
      match op with
      | "derive" | "derive_name" | "split" -> Some (`Derive, op)
      | "bool" | "int_below" | "float" | "bits" | "bernoulli" | "shuffle"
      | "choose" | "sample_without_replacement" ->
          Some (`Draw, op)
      | _ -> None)
  | _ -> None

let first_positional_ident args =
  match args with
  | (Asttypes.Nolabel, Some (arg : Typedtree.expression)) :: _ -> (
      match arg.exp_desc with
      | Typedtree.Texp_ident (Path.Pident id, _, _) -> Some id
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* R10: catch-all over message types.                                  *)

let rec pat_catch_all : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Typedtree.Tpat_any -> true
  | Typedtree.Tpat_var _ -> true
  | Typedtree.Tpat_alias (inner, _, _) -> pat_catch_all inner
  | Typedtree.Tpat_value v ->
      pat_catch_all (v :> Typedtree.value Typedtree.general_pattern)
  | Typedtree.Tpat_or (a, b, _) -> pat_catch_all a || pat_catch_all b
  | _ -> false

let rec pat_has_construct : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Typedtree.Tpat_construct _ -> true
  | Typedtree.Tpat_alias (inner, _, _) -> pat_has_construct inner
  | Typedtree.Tpat_value v ->
      pat_has_construct (v :> Typedtree.value Typedtree.general_pattern)
  | Typedtree.Tpat_or (a, b, _) -> pat_has_construct a || pat_has_construct b
  | _ -> false

let ends_with suffix s =
  String.length s >= String.length suffix
  && String.sub s (String.length s - String.length suffix) (String.length suffix)
     = suffix

(* A "message type" for R10: a variant named like a message, declared in
   one of the scanned modules (never a stdlib/predef type, so matching
   [option] or [list] with a wildcard stays legal). *)
let message_type config ~modnames ~current_module ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      let components = Callgraph.path_components p in
      match List.rev components with
      | [] -> None
      | tyname :: rev_prefix ->
          let named =
            List.mem tyname config.message_type_names
            || ends_with "_msg" tyname || ends_with "_message" tyname
            || ends_with "_payload" tyname
          in
          let defining =
            match rev_prefix with m :: _ -> m | [] -> current_module
          in
          if named && List.mem defining (current_module :: modnames) then
            Some (String.concat "." components)
          else None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Analysis of one unit against R7/R8/R10 (R9 runs per function).      *)

type context = {
  config : config;
  graph : Callgraph.t;
  summaries : (string, Effects.finding list) Hashtbl.t;
  modnames : string list;
  report : loc:Location.t -> Rules.t -> string -> unit;
}

let strip_exp (e : Typedtree.expression) = e

let record_is_protocol (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      match List.rev (Callgraph.path_components p) with
      | "t" :: "Protocol" :: _ -> true
      | _ -> false)
  | _ -> false

let protocol_name_of_fields fields =
  Array.fold_left
    (fun acc (label, def) ->
      match (label.Types.lbl_name, def) with
      | "name", Typedtree.Overridden (_, e) -> (
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_constant (Asttypes.Const_string (s, _, _)) -> Some s
          | _ -> acc)
      | _ -> acc)
    None fields

let field_effects ctx ~current_module (e : Typedtree.expression) =
  let summary_of_scan (scan : Effects.scan) =
    let inherited =
      List.concat_map
        (fun ((callee : Callgraph.fn), loc) ->
          List.map
            (fun (f : Effects.finding) ->
              { f with Effects.loc; via = callee.id :: f.via })
            (Effects.of_summary ctx.summaries callee.id))
        scan.Effects.callees
    in
    scan.Effects.own @ inherited
  in
  match (strip_exp e).exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> (
      match Callgraph.resolve ctx.graph ~current_module p with
      | Some fn ->
          List.map
            (fun (f : Effects.finding) -> { f with Effects.via = fn.id :: f.via })
            (Effects.of_summary ctx.summaries fn.id)
      | None -> [])
  | Typedtree.Texp_function _ ->
      summary_of_scan
        (Effects.scan_function ~exempt_modules:ctx.config.exempt_modules
           ctx.graph ~current_module e)
  | _ -> []

let check_protocol_record ctx ~current_module ~fields =
  let protocol = protocol_name_of_fields fields in
  Array.iter
    (fun (label, def) ->
      match def with
      | Typedtree.Overridden (lid, e)
        when List.mem label.Types.lbl_name ctx.config.pure_fields ->
          let findings = field_effects ctx ~current_module e in
          (* One diagnostic per effect kind, allowlisted raises waived. *)
          let seen = ref [] in
          List.iter
            (fun (f : Effects.finding) ->
              let key = Effects.kind_id f.kind in
              let allowlisted =
                match f.kind with
                | Effects.Raise exn -> List.mem exn ctx.config.raise_allowlist
                | _ -> false
              in
              if (not allowlisted) && not (List.mem key !seen) then begin
                seen := key :: !seen;
                let chain =
                  match f.via with
                  | [] -> ""
                  | via -> " via " ^ String.concat " -> " via
                in
                ctx.report ~loc:lid.Location.loc Rules.R8
                  (Printf.sprintf
                     "protocol%s transition `%s` reaches %s%s; transitions must \
                      be pure up to their Prng.Stream argument"
                     (match protocol with
                     | Some n -> Printf.sprintf " %S" n
                     | None -> "")
                     label.Types.lbl_name (Effects.kind_id f.kind) chain)
              end)
            findings
      | _ -> ())
    fields

let check_cases :
    type k.
    context ->
    current_module:string ->
    scrutinee_type:Types.type_expr ->
    loc:Location.t ->
    k Typedtree.case list ->
    unit =
 fun ctx ~current_module ~scrutinee_type ~loc cases ->
  match
    message_type ctx.config ~modnames:ctx.modnames ~current_module
      scrutinee_type
  with
  | None -> ()
  | Some tyname ->
      let has_construct =
        List.exists (fun c -> pat_has_construct c.Typedtree.c_lhs) cases
      in
      let catch_all =
        List.exists
          (fun c ->
            Option.is_none c.Typedtree.c_guard && pat_catch_all c.Typedtree.c_lhs)
          cases
      in
      if has_construct && catch_all then
        ctx.report ~loc Rules.R10
          (Printf.sprintf
             "catch-all `_` branch while matching message type `%s`; spell \
              the constructors out so new messages cannot be dropped silently"
             tyname)

(* A module alias ([module R = Random], [let module P = Printf in ..])
   is expanded before a path is named, so renaming a banned module does
   not hide it. *)
let expand_aliases aliases path =
  let rec go = function
    | Path.Pident id as p ->
        Option.value ~default:p (Hashtbl.find_opt aliases (Ident.unique_name id))
    | Path.Pdot (p, s) -> Path.Pdot (go p, s)
    | p -> p
  in
  go path

let rec alias_target (m : Typedtree.module_expr) =
  match m.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some p
  | Typedtree.Tmod_constraint (m, _, _, _) -> alias_target m
  | _ -> None

let unit_iterator ctx ~path ~current_module =
  let scope = Rules.scope_of_path path in
  let applies rule = Rules.applies rule scope in
  let r1_applies = applies Rules.R1 and r2_applies = applies Rules.R2 in
  let r5_applies = applies Rules.R5 in
  let r6_applies = applies Rules.R6 && not (r6_exempt path) in
  let r7_applies = applies Rules.R7 in
  let r10_applies = applies Rules.R10 in
  let r8_applies = applies Rules.R8 in
  let aliases = Hashtbl.create 4 in
  let note_alias id mexpr =
    match alias_target mexpr with
    | Some p ->
        Hashtbl.replace aliases (Ident.unique_name id) (expand_aliases aliases p)
    | None -> ()
  in
  let name_of p = Callgraph.stdlib_name (expand_aliases aliases p) in
  let check_ident (expr : Typedtree.expression) p =
    let name = name_of p in
    let report rule fmt =
      ctx.report ~loc:expr.exp_loc rule (Printf.sprintf fmt name)
    in
    if r1_applies && r1_banned name then
      report Rules.R1
        "`%s` is an ambient nondeterminism source; derive from Prng.Stream \
         instead";
    if r2_applies && r2_banned name then
      report Rules.R2
        "`%s` is version-dependent; use a stable hash (e.g. FNV-1a in \
         Prng.Stream.derive_name)";
    if r5_applies && r5_banned name then
      report Rules.R5
        "`%s` prints from library code; route output through Dsim.Obs / \
         Dsim.Trace_export";
    if r6_applies && r6_banned name then
      report Rules.R6
        "`%s` is a raw multicore primitive; route parallelism through \
         Par_sweep.map_reduce";
    if r7_applies then
      match polyeq_name (expand_aliases aliases p) with
      | Some op -> (
          match first_arrow_arg expr.exp_type with
          | Some arg when is_immediate arg -> ()
          | arg ->
              ctx.report ~loc:expr.exp_loc Rules.R7
                (Printf.sprintf
                   "polymorphic `%s` instantiated at non-immediate type \
                    `%s`; use a named comparator (Int.compare, \
                    String.equal, Option.is_none, ...)"
                   op
                   (match arg with Some a -> type_to_string a | None -> "?")))
      | None -> ()
  in
  let module_binding self (mb : Typedtree.module_binding) =
    Option.iter (fun id -> note_alias id mb.mb_expr) mb.mb_id;
    Tast_iterator.default_iterator.module_binding self mb
  in
  let expr self (expr : Typedtree.expression) =
    (match expr.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> check_ident expr p
    | Typedtree.Texp_letmodule (Some id, _, _, mexpr, _) -> note_alias id mexpr
    | Typedtree.Texp_apply
        ( { exp_desc = Typedtree.Texp_ident (f, _, _); _ },
          (Asttypes.Nolabel, Some { exp_desc = Typedtree.Texp_ident (ch, _, _); _ })
          :: _ )
      when r5_applies ->
        let f = name_of f and ch = name_of ch in
        if r5_fprintf f && r5_ambient_channel ch then
          ctx.report ~loc:expr.exp_loc Rules.R5
            (Printf.sprintf
               "`%s %s` prints to an ambient channel; take the formatter as \
                an argument instead"
               f ch)
    | Typedtree.Texp_match (scrut, cases, _) when r10_applies ->
        check_cases ctx ~current_module ~scrutinee_type:scrut.exp_type
          ~loc:expr.exp_loc cases
    | Typedtree.Texp_function { cases; _ } when r10_applies -> (
        match cases with
        | { Typedtree.c_lhs; _ } :: _ :: _ ->
            (* `function C1 .. | C2 ..` sugar: at least two cases, so it
               is a dispatch, not a mere parameter binding. *)
            check_cases ctx ~current_module
              ~scrutinee_type:c_lhs.Typedtree.pat_type ~loc:expr.exp_loc cases
        | _ -> ())
    | Typedtree.Texp_record { fields; _ }
      when r8_applies && record_is_protocol expr.exp_type ->
        check_protocol_record ctx ~current_module ~fields
    | _ -> ());
    Tast_iterator.default_iterator.expr self expr
  in
  { Tast_iterator.default_iterator with expr; module_binding }

(* R9 runs over each named function body so the "both roles on one
   stream" judgment has a natural scope (closures included). *)
let check_stream_roles ctx (fn : Callgraph.fn) =
  let aliases = Hashtbl.create 8 in
  let rec canon key =
    match Hashtbl.find_opt aliases key with
    | Some next when next <> key -> canon next
    | _ -> key
  in
  let derives = Hashtbl.create 8 in
  let draws = Hashtbl.create 8 in
  let note table id op loc =
    let key = canon (Ident.unique_name id) in
    let existing = Option.value ~default:[] (Hashtbl.find_opt table key) in
    Hashtbl.replace table key ((Ident.name id, op, loc) :: existing)
  in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_let (_, vbs, _) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
            | ( Typedtree.Tpat_var (id, _),
                Typedtree.Texp_ident (Path.Pident src, _, _) ) ->
                Hashtbl.replace aliases (Ident.unique_name id)
                  (canon (Ident.unique_name src))
            | _ -> ())
          vbs
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
      -> (
        match stream_op p with
        | Some (role, op) -> (
            match first_positional_ident args with
            | Some id -> (
                match role with
                | `Derive -> note derives id op e.exp_loc
                | `Draw -> note draws id op e.exp_loc)
            | None -> ())
        | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let iterator = { Tast_iterator.default_iterator with expr } in
  iterator.expr iterator fn.body;
  Hashtbl.iter
    (fun key derive_uses ->
      match Hashtbl.find_opt draws key with
      | None -> ()
      | Some draw_uses ->
          let name, _, loc =
            List.nth derive_uses (List.length derive_uses - 1)
          in
          let _, draw_op, _ =
            List.nth draw_uses (List.length draw_uses - 1)
          in
          ctx.report ~loc Rules.R9
            (Printf.sprintf
               "stream `%s` is used both as a derivation parent and as a draw \
                source (`%s`) in `%s`; derived children would depend on the \
                draw schedule - fork an explicit draw stream with Stream.copy"
               name draw_op fn.id))
    derives

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let analyze_units ?(config = default_config) units =
  (* R8 and R9 root in lib/ only, and a library cannot call into an
     executable, so the call graph spans the library units alone; that
     also keeps the executables' colliding module names (two [Main]s)
     out of it. *)
  let graph =
    Callgraph.build
      (List.filter
         (fun (u : Cmt_loader.unit_info) ->
           (Rules.scope_of_path u.path).top = `Lib)
         units)
  in
  let summaries = Effects.summaries ~exempt_modules:config.exempt_modules graph in
  let modnames = List.map (fun (u : Cmt_loader.unit_info) -> u.modname) units in
  let diagnostics = ref [] in
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      let suppressions =
        match u.source with
        | Some source -> Rules.suppressions_of_source source
        | None -> Hashtbl.create 1
      in
      (* Applicability is the emitting rule's own business; here we
         only honour inline suppressions. *)
      let report ~loc rule message =
        let start = loc.Location.loc_start in
        let line = start.Lexing.pos_lnum in
        if not (Rules.suppressed suppressions ~line rule) then
          diagnostics :=
            {
              Rules.path = u.path;
              line;
              col = start.Lexing.pos_cnum - start.Lexing.pos_bol;
              rule;
              message;
            }
            :: !diagnostics
      in
      let ctx = { config; graph; summaries; modnames; report } in
      let iterator = unit_iterator ctx ~path:u.path ~current_module:u.modname in
      iterator.structure iterator u.structure;
      if Rules.applies Rules.R9 (Rules.scope_of_path u.path) then
        List.iter
          (fun (fn : Callgraph.fn) ->
            if fn.src_path = u.path then check_stream_roles ctx fn)
          (Callgraph.fns graph))
    units;
  List.sort_uniq Rules.compare_diagnostic !diagnostics

let analyze ?config (load : Cmt_loader.load) = analyze_units ?config load.units

(* ------------------------------------------------------------------ *)
(* In-memory typechecking: fixture tests and `lint --check FILE` need
   typed trees for sources that are not part of the dune build.        *)

let env_ready = ref false

let typecheck_source ~path source =
  if not !env_ready then begin
    Compmisc.init_path ();
    env_ready := true
  end;
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
          Error
            (Printf.sprintf "%s: parse error: %s" path
               (String.trim (Format.asprintf "%a" Location.print_report report)))
      | _ -> Error (Printf.sprintf "%s: parse error: %s" path (Printexc.to_string exn)))
  | ast -> (
      match Typemod.type_structure env ast with
      | structure, _, _, _, _ -> Ok structure
      | exception exn -> (
          match Location.error_of_exn exn with
          | Some (`Ok report) ->
              Error
                (Printf.sprintf "%s: type error: %s" path
                   (String.trim
                      (Format.asprintf "%a" Location.print_report report)))
          | _ ->
              Error
                (Printf.sprintf "%s: type error: %s" path
                   (Printexc.to_string exn))))

let modname_of_path path =
  Filename.basename path |> Filename.remove_extension |> String.capitalize_ascii

let check_source ?config ~path source =
  match typecheck_source ~path source with
  | Error _ as e -> e
  | Ok structure ->
      let unit_info =
        {
          Cmt_loader.modname = modname_of_path path;
          path;
          structure;
          source = Some source;
        }
      in
      Ok (analyze_units ?config [ unit_info ])

type kind =
  | Mutation of string
  | Io of string
  | Raise of string

type finding = { kind : kind; loc : Location.t; via : string list }

let kind_id = function
  | Mutation d -> "mutation: " ^ d
  | Io d -> "io: " ^ d
  | Raise d -> "raise: " ^ d

let default_exempt_modules = [ "Stream"; "Splitmix" ]

(* ------------------------------------------------------------------ *)
(* Primitive tables.  Names are Stdlib-stripped ("Hashtbl.replace",
   ":=").  The mutator table carries the index of the argument being
   mutated, so mutation of function-local allocations can be excused. *)

let mutators =
  [
    (":=", 0); ("incr", 0); ("decr", 0);
    ("Array.set", 0); ("Array.unsafe_set", 0); ("Array.fill", 0);
    ("Array.blit", 2); ("Array.sort", 1); ("Array.fast_sort", 1);
    ("Array.stable_sort", 1);
    ("Bytes.set", 0); ("Bytes.unsafe_set", 0); ("Bytes.fill", 0);
    ("Bytes.blit", 2); ("Bytes.blit_string", 2);
    ("Hashtbl.add", 0); ("Hashtbl.replace", 0); ("Hashtbl.remove", 0);
    ("Hashtbl.clear", 0); ("Hashtbl.reset", 0);
    ("Hashtbl.filter_map_inplace", 1);
    ("Queue.add", 1); ("Queue.push", 1); ("Queue.pop", 0); ("Queue.take", 0);
    ("Queue.clear", 0); ("Queue.transfer", 0);
    ("Stack.push", 1); ("Stack.pop", 0); ("Stack.clear", 0);
    ("Buffer.add_char", 0); ("Buffer.add_string", 0); ("Buffer.add_bytes", 0);
    ("Buffer.add_buffer", 0); ("Buffer.clear", 0); ("Buffer.reset", 0);
    ("Buffer.truncate", 0);
  ]

let io_exact =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "read_line"; "read_int";
    "read_int_opt"; "flush"; "flush_all"; "exit"; "output_string";
    "output_char"; "output_byte"; "output_bytes"; "output_value";
    "open_in"; "open_in_bin"; "open_out"; "open_out_bin"; "close_in";
    "close_out"; "input_line"; "input_char"; "input_byte";
    "really_input_string"; "Printf.printf"; "Printf.eprintf";
    "Printf.fprintf"; "Format.printf"; "Format.eprintf"; "Format.fprintf";
    "Sys.command"; "Sys.remove"; "Sys.rename"; "Sys.getenv"; "Sys.time";
    "Sys.readdir"; "Unix.gettimeofday";
  ]

let io_prefixes = [ "In_channel."; "Out_channel."; "Unix."; "Format.print_"; "Random." ]

let raisers = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* Expressions whose result is a fresh mutable value: a let-binding of
   one of these makes the bound name a local allocation, so mutating it
   is invisible to callers and not an effect. *)
let allocators =
  [
    "ref"; "Array.make"; "Array.create_float"; "Array.init"; "Array.copy";
    "Array.of_list"; "Array.append"; "Array.sub"; "Array.map"; "Array.mapi";
    "Array.make_matrix"; "Bytes.create"; "Bytes.make"; "Bytes.copy";
    "Bytes.of_string"; "Hashtbl.create"; "Queue.create"; "Stack.create";
    "Buffer.create";
  ]

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let is_io name =
  List.mem name io_exact || List.exists (fun p -> starts_with p name) io_prefixes

(* ------------------------------------------------------------------ *)
(* Intraprocedural scan.                                               *)

type scan = {
  own : finding list;
  callees : (Callgraph.fn * Location.t) list;
}

let base_ident (expr : Typedtree.expression) =
  let rec go (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> Some id
    | Texp_field (inner, _, _) -> go inner
    | _ -> None
  in
  go expr

let exception_name (arg : Typedtree.expression) =
  match arg.exp_desc with
  | Texp_construct (_, cstr, _) -> cstr.Types.cstr_name
  | _ -> "?"

let is_allocation locals (expr : Typedtree.expression) =
  match expr.exp_desc with
  | Texp_array _ | Texp_record _ -> true
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      List.mem (Callgraph.stdlib_name p) allocators
  | Texp_ident (Path.Pident id, _, _) -> Hashtbl.mem locals (Ident.unique_name id)
  | _ -> false

let scan_function ?(exempt_modules = default_exempt_modules) graph
    ~current_module (body : Typedtree.expression) =
  let own = ref [] in
  let callees = ref [] in
  let locals = Hashtbl.create 16 in
  let consumed = Hashtbl.create 16 in
  let effect_ kind loc = own := { kind; loc; via = [] } :: !own in
  let local_target args index =
    match List.nth_opt args index with
    | Some (_, Some arg) -> (
        match base_ident arg with
        | Some id -> Hashtbl.mem locals (Ident.unique_name id)
        | None -> false)
    | _ -> false
  in
  let classify_name name ~loc ~args =
    match List.assoc_opt name mutators with
    | Some index ->
        if not (local_target args index) then
          effect_ (Mutation (name ^ " on non-local state")) loc
    | None ->
        if is_io name then effect_ (Io name) loc
        else if List.mem name raisers then begin
          let exn =
            match name with
            | "failwith" -> "Failure"
            | "invalid_arg" -> "Invalid_argument"
            | _ -> (
                match args with
                | (_, Some arg) :: _ -> exception_name arg
                | _ -> "?")
          in
          effect_ (Raise exn) loc
        end
  in
  (* Known functions become call-graph edges unless their module is
     exempt (the sanctioned stream draws); unknown externals are
     assumed pure, so only the primitive tables above create leaf
     effects. *)
  let note_path ~args path loc =
    match Callgraph.resolve graph ~current_module path with
    | Some fn ->
        if not (List.mem fn.Callgraph.modname exempt_modules) then
          callees := (fn, loc) :: !callees
    | None ->
        let components = Callgraph.path_components path in
        let stripped =
          match components with "Stdlib" :: (_ :: _ as r) -> r | c -> c
        in
        (match stripped with
        | m :: _ :: _ when List.mem m exempt_modules -> ()
        | _ -> classify_name (String.concat "." stripped) ~loc ~args)
  in
  let iterator =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self (expr : Typedtree.expression) ->
          (match expr.exp_desc with
          | Texp_let (_, vbs, _) ->
              List.iter
                (fun (vb : Typedtree.value_binding) ->
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (id, _) when is_allocation locals vb.vb_expr ->
                      Hashtbl.replace locals (Ident.unique_name id) ()
                  | _ -> ())
                vbs
          | Texp_setfield (obj, _, label, _) -> (
              match base_ident obj with
              | Some id when Hashtbl.mem locals (Ident.unique_name id) -> ()
              | _ ->
                  effect_
                    (Mutation
                       (Printf.sprintf "field set `%s <-` on non-local state"
                          label.Types.lbl_name))
                    expr.exp_loc)
          | Texp_assert (_, _) -> effect_ (Raise "Assert_failure") expr.exp_loc
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); exp_loc; _ }, args) ->
              (* The head ident is handled here with its argument list;
                 mark it so the generic ident case below skips it. *)
              Hashtbl.replace consumed exp_loc ();
              note_path ~args p exp_loc
          | Texp_ident (p, _, _) ->
              if not (Hashtbl.mem consumed expr.exp_loc) then
                note_path ~args:[] p expr.exp_loc
          | _ -> ());
          Tast_iterator.default_iterator.expr self expr);
    }
  in
  iterator.expr iterator body;
  { own = List.rev !own; callees = List.rev !callees }

(* ------------------------------------------------------------------ *)
(* Fixpoint over the call graph.                                       *)

let summaries ?(exempt_modules = default_exempt_modules) graph =
  let fns = Callgraph.fns graph in
  let scans =
    List.map
      (fun (fn : Callgraph.fn) ->
        ( fn.id,
          scan_function ~exempt_modules graph ~current_module:fn.modname
            fn.body ))
      fns
  in
  let table : (string, finding list) Hashtbl.t =
    Hashtbl.create (List.length scans)
  in
  List.iter (fun (id, scan) -> Hashtbl.replace table id scan.own) scans;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (id, scan) ->
        let current = Hashtbl.find table id in
        let keys = List.map (fun f -> kind_id f.kind) current in
        (* One representative finding per effect kind, via-chain from
           the first call site that surfaced it. *)
        let _, additions =
          List.fold_left
            (fun (keys, acc) ((callee : Callgraph.fn), call_loc) ->
              match Hashtbl.find_opt table callee.id with
              | None -> (keys, acc)
              | Some findings ->
                  List.fold_left
                    (fun (keys, acc) f ->
                      let key = kind_id f.kind in
                      if List.mem key keys then (keys, acc)
                      else
                        ( key :: keys,
                          { f with loc = call_loc; via = callee.id :: f.via }
                          :: acc ))
                    (keys, acc) findings)
            (keys, []) scan.callees
        in
        match additions with
        | [] -> ()
        | _ ->
            Hashtbl.replace table id (current @ List.rev additions);
            changed := true)
      scans
  done;
  table

let of_summary table id = Option.value ~default:[] (Hashtbl.find_opt table id)

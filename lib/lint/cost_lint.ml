(* The cmt-based hot-path cost & allocation analyzer (R11-R15).

   Every function in the library gets an asymptotic per-call summary
   over the {!Costs} lattice, computed by mapping known stdlib and
   in-repo primitives through the interprocedural call graph
   ({!Callgraph}), with data-dependent loops and higher-order iterators
   multiplying their body's cost ({!Costs.nest}) and recursion treated
   as one data-dependent iteration (Tarjan SCCs, in-SCC calls counted
   as O(1) and the component then nested under O(n)).

   Findings are only reported inside the configured *hot set*: every
   function reachable from the kernel roots ([Engine.apply_window],
   the [Mailbox] core operations, the [Window] constructors) or from a
   [Dsim.Protocol.t] transition field.  Reporting happens at the
   introducing site — the loop, primitive or allocation itself, in the
   function whose body contains it — so an inline
   [(* lint: allow Rn *)] is always local; the message carries the hot
   path from the root so the reader can see why the function is hot.

   Summary overrides declare the true (amortized) cost of in-repo
   primitives whose implementation the lattice cannot see — e.g.
   [Mailbox.add_broadcast] is amortized O(1) despite its growth loops.  An
   override is the central justification for the whole function: its
   own body is not reported and the hot-set walk does not descend into
   it, so the declared cost is what callers pay. *)

type config = {
  hot_roots : string list;
      (* call-graph function ids (Module.name) seeding the hot set *)
  transition_fields : string list;
      (* Protocol.t fields whose values also seed the hot set *)
  overrides : (string * Costs.t) list;
      (* fn id -> declared amortized cost; body exempt, BFS barrier *)
  exempt_modules : string list;
      (* modules whose calls are free (the sanctioned stream draws) *)
}

let default_config =
  {
    hot_roots =
      [
        "Engine.apply_window"; "Engine.deliver_all_pending";
        "Mailbox.add_broadcast"; "Mailbox.take_with";
        "Mailbox.replace_payload"; "Mailbox.iter_for";
        "Mailbox.iter_range"; "Mailbox.drain_for";
        "Window.make"; "Window.uniform"; "Window.hybrid"; "Window.allows";
        "Window.receive_set_size";
      ];
    transition_fields = [ "outgoing"; "on_deliver"; "on_reset"; "output" ];
    overrides =
      [
        (* Mailbox: a table of shared broadcast entries.  The table
           growth and compaction loops amortize to O(1) per engine op,
           and the point lookups pay one binary search over the
           (sorted, disjoint) id ranges (see lib/dsim/mailbox.ml's
           invariants).  add_broadcast writes one table entry plus an
           n-bit pending bitmap (n/63 words); that linear-in-words
           setup is charged to the n deliveries/drops the broadcast
           funds, so per resulting envelope it is O(1) amortized. *)
        ("Mailbox.add_broadcast", Costs.Const);
        (* take_with is the removal primitive behind the engine's
           Deliver and Drop steps: the binary search plus an O(1)
           pending-bit clear.  replace_payload is the same search plus
           one insert into the (corruption-only) override map. *)
        ("Mailbox.take_with", Costs.Log);
        ("Mailbox.replace_payload", Costs.Log);
        ("Mailbox.iter_for", Costs.Const);  (* per delivered envelope *)
        (* iter_range skip-scans whole empty bitmap words, so its work
           is proportional to envelopes actually visited (each one an
           engine event), not to the id range. *)
        ("Mailbox.iter_range", Costs.Const);
        (* drain_for is the window delivery walk: iter_for's walk with
           removal, each visited envelope an engine event, removal O(1)
           per envelope (a pending-bit clear).  Both walks hand their
           visitor the fields, never an envelope record. *)
        ("Mailbox.drain_for", Costs.Const);
        (* Window.allows is a mask probe; the list fallback only runs
           for pids >= the mask clamp (2^16). *)
        ("Window.allows", Costs.Const);
        (* Bitset: mem/remove are two loads and a shift; construction
           is linear by design (window building and broadcast pending
           maps, not per delivery); next_from skips empty words, so a
           scan over a set is linear in hits plus words, O(1) amortized
           per hit; popcount is bounded by the 63-bit word size. *)
        ("Bitset.mem", Costs.Const);
        ("Bitset.remove", Costs.Const);
        ("Bitset.next_from", Costs.Const);
        ("Bitset.create", Costs.Linear);
        ("Bitset.of_list", Costs.Linear);
        ("Bitset.full", Costs.Linear);
        ("Bitset.copy", Costs.Linear);
        ("Bitset.cardinal", Costs.Linear);
        ("Bitset.cardinal_below", Costs.Linear);
        ("Bitset.popcount_word", Costs.Const);
        (* Trace: each recorder bumps one counter and builds its event
           only when event recording is on (diagnostic runs, never the
           hot bench path); the broadcast recorder bumps the sent
           counter once for all its destinations. *)
        ("Trace.record_delivered", Costs.Const);
        ("Trace.record_dropped", Costs.Const);
        ("Trace.record_reset", Costs.Const);
        ("Trace.record_crash", Costs.Const);
        ("Trace.record_window_closed", Costs.Const);
        ("Trace.record_decided", Costs.Const);
        ("Trace.record_broadcast", Costs.Const);
      ];
    exempt_modules = Effects.default_exempt_modules;
  }

(* ------------------------------------------------------------------ *)
(* Primitive cost table.                                               *)

type prim = {
  cost : Costs.t;  (* excluding whatever the iterated closure costs *)
  iterates : int list;  (* positional args applied once per element *)
  collection : int option;  (* scanned-structure arg, R13 candidate *)
  size_arg : int option;  (* literal constant here => constant-size *)
  materializes : bool;  (* output allocation scales with input (R12) *)
  amortized : bool;  (* sanctioned growth op: R12-exempt *)
}

let prim ?(iterates = []) ?collection ?size_arg ?(materializes = false)
    ?(amortized = false) cost =
  { cost; iterates; collection; size_arg; materializes; amortized }

let const = prim Costs.Const
let lin = prim Costs.Linear

let stdlib_prims =
  [
    (* Lists. *)
    ("List.length", prim Costs.Linear ~collection:0);
    ("List.mem", prim Costs.Linear ~collection:1);
    ("List.memq", prim Costs.Linear ~collection:1);
    ("List.assoc", prim Costs.Linear ~collection:1);
    ("List.assoc_opt", prim Costs.Linear ~collection:1);
    ("List.mem_assoc", prim Costs.Linear ~collection:1);
    ("List.nth", prim Costs.Linear ~collection:0);
    ("List.nth_opt", prim Costs.Linear ~collection:0);
    ("List.exists", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("List.for_all", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("List.find", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("List.find_opt", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("List.find_map", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("List.iter", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("List.iteri", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("List.fold_left", prim Costs.Linear ~iterates:[ 0 ] ~collection:2);
    ("List.fold_right", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("List.map", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("List.mapi", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("List.rev_map", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("List.filter", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("List.filter_map", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("List.concat_map", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("List.partition", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("List.init", prim Costs.Linear ~iterates:[ 1 ] ~size_arg:0 ~materializes:true);
    (* Append/rev-style restructurers walk their input but are not
       receive-set scans in the R13 sense; they surface as R12. *)
    ("List.rev", prim Costs.Linear ~materializes:true);
    ("List.append", prim Costs.Linear ~materializes:true);
    ("@", prim Costs.Linear ~materializes:true);
    ("List.rev_append", prim Costs.Linear ~materializes:true);
    ("List.concat", prim Costs.Linear ~materializes:true);
    ("List.flatten", prim Costs.Linear ~materializes:true);
    ("List.split", prim Costs.Linear ~collection:0 ~materializes:true);
    ("List.combine", prim Costs.Linear ~collection:0 ~materializes:true);
    ("List.sort", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("List.stable_sort", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("List.fast_sort", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("List.sort_uniq", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("List.of_seq", prim Costs.Linear ~collection:0 ~materializes:true);
    ("List.to_seq", prim Costs.Linear ~collection:0 ~materializes:true);
    ("List.hd", const); ("List.tl", const); ("List.cons", const);
    ("List.is_empty", const);
    (* Arrays. *)
    ("Array.length", const); ("Array.get", const); ("Array.set", const);
    ("Array.unsafe_get", const); ("Array.unsafe_set", const);
    ("Array.make", prim Costs.Linear ~size_arg:0 ~materializes:true);
    ("Array.create_float", prim Costs.Linear ~size_arg:0 ~materializes:true);
    ("Array.init", prim Costs.Linear ~iterates:[ 1 ] ~size_arg:0 ~materializes:true);
    ("Array.make_matrix", prim Costs.Quadratic ~materializes:true);
    ("Array.copy", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Array.append", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Array.sub", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Array.concat", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Array.of_list", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Array.to_list", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Array.of_seq", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Array.to_seq", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Array.map", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("Array.mapi", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("Array.iter", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("Array.iteri", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("Array.fold_left", prim Costs.Linear ~iterates:[ 0 ] ~collection:2);
    ("Array.fold_right", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("Array.exists", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("Array.for_all", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("Array.mem", prim Costs.Linear ~collection:1);
    ("Array.memq", prim Costs.Linear ~collection:1);
    ("Array.blit", lin); ("Array.fill", lin);
    ("Array.sort", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("Array.fast_sort", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("Array.stable_sort", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    (* Hashtbl: amortized-O(1) core ops, linear iteration. *)
    ("Hashtbl.add", prim Costs.Const ~amortized:true);
    ("Hashtbl.replace", prim Costs.Const ~amortized:true);
    ("Hashtbl.remove", prim Costs.Const ~amortized:true);
    ("Hashtbl.find", const); ("Hashtbl.find_opt", const);
    ("Hashtbl.mem", const); ("Hashtbl.length", const);
    ("Hashtbl.iter", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("Hashtbl.fold", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("Hashtbl.filter_map_inplace", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("Hashtbl.copy", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Hashtbl.to_seq", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Hashtbl.clear", lin); ("Hashtbl.reset", lin);
    (* Queues, stacks, buffers: amortized-O(1) growth ops. *)
    ("Queue.add", prim Costs.Const ~amortized:true);
    ("Queue.push", prim Costs.Const ~amortized:true);
    ("Queue.pop", const); ("Queue.take", const); ("Queue.peek", const);
    ("Queue.is_empty", const); ("Queue.length", const);
    ("Queue.iter", prim Costs.Linear ~iterates:[ 0 ] ~collection:1);
    ("Queue.fold", prim Costs.Linear ~iterates:[ 0 ] ~collection:2);
    ("Queue.copy", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Stack.push", prim Costs.Const ~amortized:true);
    ("Stack.pop", const); ("Stack.top", const); ("Stack.is_empty", const);
    ("Buffer.add_char", prim Costs.Const ~amortized:true);
    ("Buffer.add_string", prim Costs.Const ~amortized:true);
    ("Buffer.add_bytes", prim Costs.Const ~amortized:true);
    ("Buffer.add_buffer", prim Costs.Const ~amortized:true);
    ("Buffer.length", const); ("Buffer.clear", const); ("Buffer.reset", const);
    ("Buffer.contents", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Buffer.to_bytes", prim Costs.Linear ~collection:0 ~materializes:true);
    (* Strings and bytes (hot code shouldn't build them, R5 aside). *)
    ("String.length", const); ("String.get", const);
    ("String.make", prim Costs.Linear ~size_arg:0 ~materializes:true);
    ("String.init", prim Costs.Linear ~iterates:[ 1 ] ~size_arg:0 ~materializes:true);
    ("String.sub", prim Costs.Linear ~materializes:true);
    ("String.concat", prim Costs.Linear ~collection:1 ~materializes:true);
    ("String.cat", prim Costs.Linear ~materializes:true);
    ("^", prim Costs.Linear ~materializes:true);
    ("String.map", prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true);
    ("String.split_on_char", prim Costs.Linear ~collection:1 ~materializes:true);
    ("String.compare", lin); ("String.equal", lin);
    ("Bytes.create", prim Costs.Linear ~size_arg:0 ~materializes:true);
    ("Bytes.make", prim Costs.Linear ~size_arg:0 ~materializes:true);
    ("Bytes.copy", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Bytes.of_string", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Bytes.to_string", prim Costs.Linear ~collection:0 ~materializes:true);
    ("Bytes.sub", prim Costs.Linear ~materializes:true);
    ("Bytes.blit", lin); ("Bytes.fill", lin);
  ]

(* Functor-made maps and sets ([Map.Make]/[Set.Make] instances) never
   appear in the call graph — the functor body has no cmt here — so
   they are classified by module-name shape + operation name, at the
   balanced-tree costs. *)
let map_like modname =
  let m = String.lowercase_ascii modname in
  m = "map" || m = "set"
  || String.ends_with ~suffix:"_map" m
  || String.ends_with ~suffix:"_set" m

let map_prim op =
  match op with
  | "find" | "find_opt" | "add" | "remove" | "mem" | "update" | "singleton"
  | "min_binding" | "min_binding_opt" | "max_binding" | "max_binding_opt"
  | "min_elt" | "min_elt_opt" | "max_elt" | "max_elt_opt" | "find_first"
  | "find_last" | "split" ->
      (* Path-copying tree update: O(log n) time and allocation; the
         sanctioned persistent-state shape, so R12-exempt. *)
      Some (prim Costs.Log ~amortized:true)
  | "is_empty" | "empty" | "choose" | "choose_opt" -> Some const
  | "fold" | "iter" -> Some (prim Costs.Linear ~iterates:[ 0 ] ~collection:1)
  | "for_all" | "exists" -> Some (prim Costs.Linear ~iterates:[ 0 ] ~collection:1)
  | "cardinal" -> Some (prim Costs.Linear ~collection:0)
  | "bindings" | "elements" | "to_list" ->
      Some (prim Costs.Linear ~collection:0 ~materializes:true)
  | "filter" | "partition" | "map" | "mapi" | "filter_map" ->
      Some (prim Costs.Linear ~iterates:[ 0 ] ~collection:1 ~materializes:true)
  | "of_list" | "of_seq" | "to_seq" | "union" | "inter" | "diff" | "merge" ->
      Some (prim Costs.Linear ~materializes:true)
  | _ -> None

let prim_of_name name =
  match List.assoc_opt name stdlib_prims with
  | Some _ as p -> p
  | None -> (
      match String.split_on_char '.' name with
      | [ modname; op ] when map_like modname -> map_prim op
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Intraprocedural site scan.                                          *)

type site_kind =
  | Prim of string * prim * bool
      (* name, table entry, collection-arg-is-fresh-local *)
  | Call of Callgraph.fn
  | For_loop
  | While_loop
  | Alloc of string  (* list cons / tuple / record / array / closure *)
  | Fanout of string  (* List.init building per-destination envelopes *)

type site = { loc : Location.t; kind : site_kind; depth : int }

type scan = { sites : site list }

let is_constant (e : Typedtree.expression) =
  match e.exp_desc with Texp_constant _ -> true | _ -> false

(* Freshness of a collection argument: a let-bound name whose RHS was a
   materializing primitive or a literal structure.  Scanning those is
   still linear work (flagged by cost), but it is not a *state re-scan*
   in the R13 sense. *)
let arg_is_fresh_local locals (arg : Typedtree.expression option) =
  match arg with
  | None -> false
  | Some arg -> (
      match Effects.base_ident arg with
      | Some id -> Hashtbl.mem locals (Ident.unique_name id)
      | None -> false)

let is_fresh_rhs locals (expr : Typedtree.expression) =
  match expr.exp_desc with
  | Texp_array _ | Texp_record _ | Texp_tuple _ -> true
  | Texp_construct (_, cstr, _) ->
      cstr.Types.cstr_name = "::" || cstr.Types.cstr_name = "[]"
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
      match prim_of_name (Callgraph.stdlib_name p) with
      | Some info -> info.materializes
      | None -> false)
  | Texp_ident (Path.Pident id, _, _) -> Hashtbl.mem locals (Ident.unique_name id)
  | _ -> false

(* A List.init body that builds one (destination, payload) tuple per
   index is the eager-fan-out shape (R14). *)
let builds_tuple (arg : Typedtree.expression option) =
  match arg with
  | Some { exp_desc = Texp_function { cases; _ }; _ } ->
      List.exists
        (fun (c : Typedtree.value Typedtree.case) ->
          match c.c_rhs.exp_desc with Texp_tuple _ -> true | _ -> false)
        cases
  | _ -> false

let scan_function ?(exempt_modules = Effects.default_exempt_modules) graph
    ~current_module (body : Typedtree.expression) =
  let sites = ref [] in
  let locals = Hashtbl.create 16 in
  let consumed = Hashtbl.create 16 in
  let depth = ref 0 in
  (* Subtrees iterated once per element of a data-dependent structure:
     higher-order iterator closure bodies and loop bodies.  Matched by
     physical identity, so duplicated locations (ppx-free trees don't
     have them, but cheap insurance) cannot cross-boost. *)
  let boosted : Typedtree.expression list ref = ref [] in
  (* The closure (and any curried parameter layer inside it) is
     allocated once; only the innermost body runs per element. *)
  let rec boost (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter
          (fun (c : Typedtree.value Typedtree.case) -> boost c.c_rhs)
          cases
    | _ -> boosted := e :: !boosted
  in
  let add kind loc = sites := { loc; kind; depth = !depth } :: !sites in
  let note_apply path loc (args : (Asttypes.arg_label * Typedtree.expression option) list) =
    let name = Callgraph.stdlib_name path in
    let positional = List.map snd args in
    let nth i = List.nth_opt positional i |> Option.join in
    match Callgraph.resolve graph ~current_module path with
    | Some fn ->
        if not (List.mem fn.Callgraph.modname exempt_modules) then
          add (Call fn) loc
    | None -> (
        match prim_of_name name with
        | None -> ()  (* unknown external: assumed O(1), like effects *)
        | Some info ->
            let const_size =
              match info.size_arg with
              | Some i -> ( match nth i with Some a -> is_constant a | None -> false)
              | None -> false
            in
            if not const_size then begin
              let fresh =
                match info.collection with
                | Some i -> arg_is_fresh_local locals (nth i)
                | None -> false
              in
              if
                name = "List.init"
                && (match nth 0 with Some a -> not (is_constant a) | None -> false)
                && builds_tuple (nth 1)
              then add (Fanout name) loc
              else add (Prim (name, info, fresh)) loc
            end;
            (* Iterated function arguments: named functions become
               per-element call edges; inline closures are boosted so
               their bodies scan one level deeper.  A constant
               iteration count bounds the per-element work, so it does
               not boost. *)
            if not const_size then
              List.iter
                (fun i ->
                  match nth i with
                  | Some ({ exp_desc = Texp_function _; _ } as f) -> boost f
                  | Some { exp_desc = Texp_ident (p, _, _); exp_loc; _ } -> (
                      match Callgraph.resolve graph ~current_module p with
                      | Some fn
                        when not (List.mem fn.Callgraph.modname exempt_modules)
                        ->
                          (* One call per element: record at depth+1. *)
                          sites :=
                            { loc = exp_loc; kind = Call fn; depth = !depth + 1 }
                            :: !sites
                      | _ -> ())
                  | _ -> ())
                info.iterates)
  in
  let iterator =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self (expr : Typedtree.expression) ->
          let bumped = List.memq expr !boosted in
          if bumped then incr depth;
          (match expr.exp_desc with
          | Texp_let (_, vbs, _) ->
              List.iter
                (fun (vb : Typedtree.value_binding) ->
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (id, _) when is_fresh_rhs locals vb.vb_expr ->
                      Hashtbl.replace locals (Ident.unique_name id) ()
                  | _ -> ())
                vbs
          | Texp_for (_, _, e_from, e_to, _, for_body) ->
              if not (is_constant e_from && is_constant e_to) then begin
                add For_loop expr.exp_loc;
                boosted := for_body :: !boosted
              end
          | Texp_while (_, while_body) ->
              add While_loop expr.exp_loc;
              boosted := while_body :: !boosted
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); exp_loc; _ }, args) ->
              Hashtbl.replace consumed exp_loc ();
              note_apply p expr.exp_loc args
          | Texp_ident (p, _, _) ->
              (* A bare reference to a sibling (e.g. a closure stored in
                 a record field) still wires a call edge for the hot-set
                 walk; primitives mentioned without application cost
                 nothing by themselves. *)
              if not (Hashtbl.mem consumed expr.exp_loc) then (
                match Callgraph.resolve graph ~current_module p with
                | Some fn ->
                    if not (List.mem fn.Callgraph.modname exempt_modules) then
                      add (Call fn) expr.exp_loc
                | None -> ())
          | Texp_construct (_, cstr, args)
            when cstr.Types.cstr_name = "::" && args <> [] && !depth > 0 ->
              add (Alloc "list cons") expr.exp_loc
          | Texp_tuple _ when !depth > 0 -> add (Alloc "tuple") expr.exp_loc
          | Texp_record _ when !depth > 0 ->
              add (Alloc "record construction") expr.exp_loc
          | Texp_array _ when !depth > 0 -> add (Alloc "array literal") expr.exp_loc
          | Texp_function _ when !depth > 0 ->
              add (Alloc "closure capture") expr.exp_loc
          | _ -> ());
          Tast_iterator.default_iterator.expr self expr;
          if bumped then decr depth);
    }
  in
  iterator.expr iterator body;
  { sites = List.rev !sites }

(* ------------------------------------------------------------------ *)
(* Interprocedural summaries: Tarjan SCCs bottom-up over the resolved
   call edges; a recursive component is one data-dependent iteration
   (in-SCC calls count O(1), then the component nests under O(n)), so
   structural recursion lands on O(n) instead of diverging to top.     *)

let site_cost summaries in_scc (s : site) =
  match s.kind with
  | Prim (_, info, _) -> Costs.nest_depth s.depth info.cost
  | For_loop | While_loop -> Costs.nest_depth s.depth Costs.Linear
  | Call fn ->
      let callee =
        if List.mem fn.Callgraph.id in_scc then Costs.Const
        else
          Option.value ~default:Costs.Const
            (Hashtbl.find_opt summaries fn.Callgraph.id)
      in
      Costs.nest_depth s.depth callee
  | Fanout _ -> Costs.nest_depth s.depth Costs.Linear
  | Alloc _ -> Costs.Const  (* the enclosing loop carries the cost *)

let sccs scans =
  (* Tarjan, iterative enough for these graph sizes via recursion. *)
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let edges id =
    match Hashtbl.find_opt scans id with
    | None -> []
    | Some scan ->
        List.filter_map
          (fun s ->
            match s.kind with
            | Call fn when Hashtbl.mem scans fn.Callgraph.id ->
                Some fn.Callgraph.id
            | _ -> None)
          scan.sites
  in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (edges v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) scans [] in
  List.iter
    (fun id -> if not (Hashtbl.mem index id) then strongconnect id)
    (List.sort String.compare ids);
  (* Tarjan emits components in reverse topological order: a component
     is finished only after everything it reaches; prepending yields
     callees-first. *)
  List.rev !components

(* A component is recursive when it has several members or its one
   member calls itself. *)
let is_recursive scans = function
  | [ single ] -> (
      match Hashtbl.find_opt scans single with
      | Some scan ->
          List.exists
            (fun s ->
              match s.kind with
              | Call fn -> fn.Callgraph.id = single
              | _ -> false)
            scan.sites
      | None -> false)
  | _ -> true

(* The join of a function's site costs, in-component calls at O(1). *)
let body_cost summaries scans component id =
  match Hashtbl.find_opt scans id with
  | None -> Costs.Const
  | Some scan ->
      List.fold_left
        (fun acc s -> Costs.join acc (site_cost summaries component s))
        Costs.Const scan.sites

let compute_summaries ~overrides scans components =
  let summaries = Hashtbl.create 64 in
  List.iter (fun (id, cost) -> Hashtbl.replace summaries id cost) overrides;
  List.iter
    (fun component ->
      let members = List.filter (fun id -> not (List.mem id (List.map fst overrides))) component in
      let recursive = is_recursive scans component in
      List.iter
        (fun id ->
          if not (Hashtbl.mem summaries id) then
            let c = body_cost summaries scans component id in
            let c = if recursive then Costs.nest Costs.Linear c else c in
            Hashtbl.replace summaries id c)
        members)
    components;
  summaries

(* ------------------------------------------------------------------ *)
(* The hot set: BFS from the configured kernel roots and from every
   Protocol.t transition field, recording the discovery chain.  An
   override is a barrier: the declared cost is what callers pay and
   the implementation is centrally justified, so the walk does not
   descend into it.                                                    *)

type hot = { chain : string list; transitional : bool }

let hot_walk ~overrides scans seeds =
  let table : (string, hot) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun (id, prefix, transitional) ->
      if Hashtbl.mem scans id then Queue.add (id, prefix, transitional) queue)
    seeds;
  while not (Queue.is_empty queue) do
    let id, chain, transitional = Queue.take queue in
    let visit =
      match Hashtbl.find_opt table id with
      | None -> true
      | Some h -> transitional && not h.transitional
    in
    if visit then begin
      let chain = chain @ [ id ] in
      Hashtbl.replace table id { chain; transitional };
      if not (List.mem_assoc id overrides) then
        match Hashtbl.find_opt scans id with
        | None -> ()
        | Some scan ->
            List.iter
              (fun s ->
                match s.kind with
                | Call fn when Hashtbl.mem scans fn.Callgraph.id ->
                    Queue.add (fn.Callgraph.id, chain, transitional) queue
                | _ -> ())
              scan.sites
    end
  done;
  table

(* Transition seeds: for every Protocol.t record in the tree, resolve
   the designated fields to call-graph functions; inline closures seed
   through their resolved callees. *)
let transition_seeds config graph units =
  let seeds = ref [] in
  let add_fn label (fn : Callgraph.fn) =
    seeds := (fn.id, [ label ], true) :: !seeds
  in
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      let current_module = u.modname in
      let expr self (expr : Typedtree.expression) =
        (match expr.exp_desc with
        | Texp_record { fields; _ } when Typed_lint.record_is_protocol expr.exp_type
          ->
            Array.iter
              (fun ((label : Types.label_description), def) ->
                match def with
                | Typedtree.Overridden (_, e)
                  when List.mem label.Types.lbl_name config.transition_fields -> (
                    let root_label =
                      Printf.sprintf "%s.Protocol.%s" current_module
                        label.Types.lbl_name
                    in
                    match e.Typedtree.exp_desc with
                    | Texp_ident (p, _, _) -> (
                        match Callgraph.resolve graph ~current_module p with
                        | Some fn -> add_fn root_label fn
                        | None -> ())
                    | Texp_function _ ->
                        let scan =
                          scan_function ~exempt_modules:config.exempt_modules
                            graph ~current_module e
                        in
                        List.iter
                          (fun s ->
                            match s.kind with
                            | Call fn -> add_fn root_label fn
                            | _ -> ())
                          scan.sites
                    | _ -> ())
                | _ -> ())
              fields
        | _ -> ());
        Tast_iterator.default_iterator.expr self expr
      in
      let iterator = { Tast_iterator.default_iterator with expr } in
      iterator.structure iterator u.structure)
    units;
  List.rev !seeds

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)

let pp_chain chain = String.concat " -> " chain

(* R11 fires above this threshold: O(log n) is the tolerated persistent
   map access cost; anything linear or worse is a scaling hazard. *)
let r11_threshold = Costs.Log

let report_fn ~overrides ~(hot : hot) ~report (_fn : Callgraph.fn) (scan : scan) =
  let chain = pp_chain hot.chain in
  let seen = Hashtbl.create 8 in
  let once loc f =
    let key = (loc.Location.loc_start.Lexing.pos_lnum,
               loc.Location.loc_start.Lexing.pos_cnum) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      f ()
    end
  in
  List.iter
    (fun s ->
      match s.kind with
      | Fanout name ->
          once s.loc (fun () ->
              report ~loc:s.loc Rules.R14
                (Printf.sprintf
                   "`%s` eagerly materializes one (destination, message) \
                    envelope per processor on the hot path %s; prefer a \
                    lazy/batched send, or justify the interface constraint \
                    here"
                   name chain))
      | Prim (name, info, fresh)
        when hot.transitional && info.collection <> None && not fresh
             && Costs.leq Costs.Linear info.cost ->
          once s.loc (fun () ->
              report ~loc:s.loc Rules.R13
                (Printf.sprintf
                   "`%s` re-scans a receive-set/quorum structure on every \
                    transition along %s; maintain an incremental counter in \
                    the protocol state instead (counts updated on receive, \
                    read O(1) at decision time - see Protocols.Tally)"
                   name chain))
      | Prim (name, info, _) when info.materializes && not info.amortized ->
          once s.loc (fun () ->
              report ~loc:s.loc Rules.R12
                (Printf.sprintf
                   "`%s` materializes a size-dependent structure on the hot \
                    path %s (allocation scales with the event, not a \
                    constant)"
                   name chain))
      | Prim (name, info, _) when Costs.compare info.cost r11_threshold > 0 ->
          once s.loc (fun () ->
              report ~loc:s.loc Rules.R11
                (Printf.sprintf
                   "`%s` costs %s per call on the hot path %s%s"
                   name
                   (Costs.to_string info.cost)
                   chain
                   (if s.depth > 0 then
                      Printf.sprintf " (under %d data-dependent iteration%s: %s)"
                        s.depth
                        (if s.depth = 1 then "" else "s")
                        (Costs.to_string (Costs.nest_depth s.depth info.cost))
                    else "")))
      | For_loop ->
          once s.loc (fun () ->
              report ~loc:s.loc Rules.R11
                (Printf.sprintf
                   "data-dependent `for` loop on the hot path %s costs %s per \
                    event"
                   chain
                   (Costs.to_string (Costs.nest_depth s.depth (Costs.nest Costs.Linear Costs.Const)))))
      | While_loop ->
          once s.loc (fun () ->
              report ~loc:s.loc Rules.R11
                (Printf.sprintf
                   "`while` loop with no constant bound on the hot path %s; \
                    assumed %s per event"
                   chain
                   (Costs.to_string (Costs.nest_depth s.depth (Costs.nest Costs.Linear Costs.Const)))))
      | Alloc what when s.depth > 0 ->
          once s.loc (fun () ->
              report ~loc:s.loc Rules.R12
                (Printf.sprintf
                   "%s inside a data-dependent iteration on the hot path %s \
                    allocates per element, not per event"
                   what chain))
      | Call callee -> (
          (* Super-constant callees report themselves (they are hot
             too); only an overridden callee has no body of its own to
             carry the finding, so charge the call site with the
             declared cost. *)
          match List.assoc_opt callee.Callgraph.id overrides with
          | Some declared when Costs.compare declared r11_threshold > 0 ->
              once s.loc (fun () ->
                  report ~loc:s.loc Rules.R11
                    (Printf.sprintf
                       "call to `%s` (declared %s) on the hot path %s costs %s \
                        per event"
                       callee.Callgraph.id
                       (Costs.to_string declared)
                       chain
                       (Costs.to_string (Costs.nest_depth s.depth declared))))
          | _ -> ())
      | Prim _ | Alloc _ -> ())
    scan.sites

(* R15: recursion that escapes R11.  R11 judges each site; a recursive
   function whose every site is cheap (in-component calls count O(1))
   still carries a super-logarithmic per-call summary once the
   component nests under the data-dependent iteration. *)
let report_recursion ~summaries ~scans ~(hot : hot) ~report
    (fn : Callgraph.fn) component =
  let summary =
    Option.value ~default:Costs.Const (Hashtbl.find_opt summaries fn.id)
  in
  let body_max = body_cost summaries scans component fn.id in
  if
    Costs.compare summary r11_threshold > 0
    && Costs.compare body_max r11_threshold <= 0
  then
    report ~loc:fn.loc Rules.R15
      (Printf.sprintf
         "`%s` recurses on the hot path %s: every site in its body costs at \
          most %s, so R11 stays silent, but the recursion makes it %s per \
          call; bound the recursion or declare an override with its \
          justified amortized cost"
         fn.id (pp_chain hot.chain)
         (Costs.to_string body_max)
         (Costs.to_string summary))

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let scan_all config graph =
  let fns = Callgraph.fns graph in
  let scans = Hashtbl.create (List.length fns) in
  List.iter
    (fun (fn : Callgraph.fn) ->
      Hashtbl.replace scans fn.id
        (scan_function ~exempt_modules:config.exempt_modules graph
           ~current_module:fn.modname fn.body))
    fns;
  (fns, scans)

let analyze_units ?(config = default_config) units =
  let graph = Callgraph.build units in
  let fns, scans = scan_all config graph in
  let seeds =
    List.map (fun id -> (id, [], false)) config.hot_roots
    @ transition_seeds config graph units
  in
  let hot_table = hot_walk ~overrides:config.overrides scans seeds in
  let components = sccs scans in
  let summaries = compute_summaries ~overrides:config.overrides scans components in
  (* Members of recursive components -> their component (R15). *)
  let recursive_component = Hashtbl.create 16 in
  List.iter
    (fun component ->
      if is_recursive scans component then
        List.iter (fun id -> Hashtbl.replace recursive_component id component)
          component)
    components;
  (* Per-unit suppression tables, looked up by source path. *)
  let suppressions = Hashtbl.create (List.length units) in
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      match u.source with
      | Some source ->
          Hashtbl.replace suppressions u.path
            (Rules.suppressions_of_source source)
      | None -> ())
    units;
  let diagnostics = ref [] in
  List.iter
    (fun (fn : Callgraph.fn) ->
      match Hashtbl.find_opt hot_table fn.id with
      | None -> ()
      | Some hot ->
          if
            (not (List.mem_assoc fn.id config.overrides))
            && Rules.applies Rules.R11 (Rules.scope_of_path fn.src_path)
          then begin
            let report ~loc rule message =
              let start = loc.Location.loc_start in
              let line = start.Lexing.pos_lnum in
              let silenced =
                match Hashtbl.find_opt suppressions fn.src_path with
                | Some table -> Rules.suppressed table ~line rule
                | None -> false
              in
              if not silenced then
                diagnostics :=
                  {
                    Rules.path = fn.src_path;
                    line;
                    col = start.Lexing.pos_cnum - start.Lexing.pos_bol;
                    rule;
                    message;
                  }
                  :: !diagnostics
            in
            report_fn ~overrides:config.overrides ~hot ~report fn
              (Hashtbl.find scans fn.id);
            Option.iter
              (report_recursion ~summaries ~scans ~hot ~report fn)
              (Hashtbl.find_opt recursive_component fn.id)
          end)
    fns;
  List.sort_uniq Rules.compare_diagnostic !diagnostics

let analyze ?config (load : Cmt_loader.load) = analyze_units ?config load.units

(* Per-function summaries for tests and tooling: (id, cost), sorted. *)
let summarize ?(config = default_config) units =
  let _, scans = scan_all config (Callgraph.build units) in
  let summaries =
    compute_summaries ~overrides:config.overrides scans (sccs scans)
  in
  Hashtbl.fold (fun id cost acc -> (id, cost) :: acc) summaries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let modname_of_path path =
  Filename.basename path |> Filename.remove_extension |> String.capitalize_ascii

let check_source ?config ~path source =
  match Typed_lint.typecheck_source ~path source with
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

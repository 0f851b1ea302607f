(* Bounded exhaustive exploration of the dsim kernel under the
   Definition-1 adversary: every node of the search tree is a
   configuration reached by a schedule (an array of Menu indices), and
   every edge applies one menu choice through [Engine.apply_window].

   Design notes, load-bearing for soundness:

   - Nodes are stored as schedules, not engines: expansion replays the
     parent from the root (depth window applications), which keeps the
     frontier small enough to hold millions of nodes.

   - The deduplication key is [Engine.config_fingerprint] extended with
     each processor's cumulative distinct-sender census.  The census is
     the one piece of history the safety invariants depend on (the
     quorum rule: nobody decides before hearing from [quorum] distinct
     senders), so two nodes merge only when both their configurations
     and their quorum obligations coincide.  Invariants are checked on
     every candidate edge *before* the dedup drop, so pruned edges are
     still audited.

   - A key is text, written into one buffer per expanded parent: the
     configuration (state cores, [Protocol.add_message] for every
     pending message, PRNG states as hex) and then the census, with no
     [Format], no [Printf] and no intermediate lists.  Its bytes, not
     just its equality, are load-bearing: [symmetry_hit] compares a raw
     key with its orbit minimum under [String.compare], and canonical
     ids are key digests, so a change of encoding would move both.

   - Symmetry reduction runs twin engines: for each permutation pi in
     the group G (all pid permutations fixing the root input vector and
     the corrupt-source set), the pi-relabeled schedule is replayed and
     the canonical key is the minimum rendering over the orbit
     ([orbit_min]; expansion and the [schedule_state] probe share it
     and the one rule for when twins exist, [twin_menus]).  This is
     sound because [Engine.reseed_shared] gives every processor an
     identical coin stream (safety must hold for correlated coins too,
     and correlated coins make configurations permutation-equivariant)
     and because the menu is closed under G (see menu.ml).

   - The search is breadth-first: stopping at the first violating layer
     makes the reported counterexample minimal.  Exploration is
     deterministic by construction: each layer expands through
     [Par_sweep.map_reduce] (in-order merge), children are generated in
     menu order, and every counter/violation is merged in slot order —
     so results are bit-identical across -j 1 / -j 2. *)

type window_family = [ `Uniform | `Full ]
type inputs_spec = All | Split | Unanimous of bool | Vector of bool array

type options = {
  n : int;
  t : int;
  depth : int;
  family : window_family;
  corrupt : int;  (* sources 0..corrupt-1 are subject to the tamper menu *)
  pinned : int;  (* pids 0..pinned-1 are protocol-distinguished (e.g. an
                    RBC origin): symmetries must fix them pointwise *)
  inputs : inputs_spec;
  seed : int;
  quorum : int;  (* distinct-sender census required before deciding *)
  symmetry : bool;
  dedup : bool;
  audit : bool;  (* additionally run Trace_lint on every candidate *)
  max_states : int option;  (* per-root visited budget; None = unbounded *)
  jobs : int;  (* domains expanding each BFS layer *)
  collect : bool;  (* keep canonical state ids and (dedup=false) schedules *)
}

let default_options ~n ~t ~quorum =
  {
    n;
    t;
    depth = 3;
    family = `Uniform;
    corrupt = 0;
    pinned = 0;
    inputs = All;
    seed = 1;
    quorum;
    symmetry = true;
    dedup = true;
    audit = false;
    max_states = Some 1_000_000;
    jobs = 1;
    collect = false;
  }

type kind = Agreement | Validity | Quorum | Audit

let kind_id = function
  | Agreement -> "agreement"
  | Validity -> "validity"
  | Quorum -> "quorum"
  | Audit -> "audit"

type violation = {
  kind : kind;
  root : int;  (* index into [roots] of the run *)
  root_inputs : bool array;
  vdepth : int;
  schedule : int array;
  detail : string;
}

type root_stats = {
  root_index : int;
  inputs_bits : bool array;
  group_order : int;
  states : int;
  candidates : int;
  dedup_hits : int;
  symmetry_hits : int;
  layers : int list;  (* BFS frontier sizes, depth 0 first *)
  bounded : bool;
}

type result = {
  protocol_name : string;
  opts : options;
  menu_size : int;
  roots : root_stats list;
  roots_collapsed : int;  (* input vectors skipped as symmetric images *)
  violations : violation list;  (* sorted: shortest (then lex-least) first *)
  violations_total : int;  (* before capping the stored list *)
  total_states : int;
  total_candidates : int;
  total_dedup_hits : int;
  total_symmetry_hits : int;
  bounded : bool;
  canonical : string list;  (* collect: sorted canonical state ids (hex) *)
  schedules : int array list;  (* collect && not dedup: exploration order *)
}

let bit b = if b then '1' else '0'
let inputs_string v = String.init (Array.length v) (fun i -> bit v.(i))

let compare_schedule a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i >= la then 0
      else match Int.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
    in
    go 0

let compare_violation a b =
  match Int.compare a.vdepth b.vdepth with
  | 0 -> (
      match Int.compare a.root b.root with
      | 0 -> compare_schedule a.schedule b.schedule
      | c -> c)
  | c -> c

(* {2 Permutation group} *)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          List.map (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y <> x) xs)))
        xs

let all_perms n =
  List.map Array.of_list (permutations (List.init n (fun i -> i)))

let for_alli f a =
  let rec go i = i >= Array.length a || (f i a.(i) && go (i + 1)) in
  go 0

let is_identity pi = for_alli Int.equal pi

(* pi respects the protocol roles iff it maps the corrupt-source prefix
   to itself and fixes every protocol-distinguished pid pointwise (a
   permutation that moves an RBC origin relabels to a run of a
   *different* protocol, so it is not a symmetry of the dynamics). *)
let fixes_roles ~corrupt ~pinned pi =
  for_alli
    (fun i pi_i -> (i >= corrupt || pi_i < corrupt) && (i >= pinned || pi_i = i))
    pi

(* It is a symmetry of the root iff it also preserves the input
   vector. *)
let fixes_root ~inputs ~corrupt ~pinned pi =
  fixes_roles ~corrupt ~pinned pi
  && for_alli (fun i pi_i -> Bool.equal inputs.(pi_i) inputs.(i)) pi

let root_group ~inputs ~corrupt ~pinned n =
  List.filter (fixes_root ~inputs ~corrupt ~pinned) (all_perms n)

(* Orbit-minimal representatives of input vectors under the permutations
   that fix the corrupt prefix (used by [All] roots). *)
let permute_inputs pi v =
  let out = Array.make (Array.length v) false in
  Array.iteri (fun i pi_i -> out.(pi_i) <- v.(i)) pi;
  out

let is_canonical_root perms v =
  let sv = inputs_string v in
  List.for_all
    (fun pi -> String.compare (inputs_string (permute_inputs pi v)) sv >= 0)
    perms

(* {2 Engine driving} *)

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let emitters ~protocol e =
  let n = Dsim.Engine.n e in
  let em = Array.make n 0 in
  for p = 0 to n - 1 do
    let _, sends = protocol.Dsim.Protocol.outgoing (Dsim.Engine.state e p) in
    if not (List.is_empty sends) then
      for d = 0 to n - 1 do
        em.(d) <- em.(d) lor (1 lsl p)
      done
  done;
  em

(* Rewrite the bit of every fresh message from [tam.src], per
   destination as [tam.mask] says, in one ascending walk: a [Corrupt]
   only overrides the visited envelope's payload, which the walk
   allows. *)
let apply_tamper ~protocol e (tam : Menu.tamper) ~from_id ~til_id =
  Dsim.Mailbox.iter_range (Dsim.Engine.mailbox e) ~from:from_id ~til:til_id ()
    (fun () ~id ~src ~dst ~depth:_ payload ->
      if src = tam.Menu.src then
        let bitv = (tam.Menu.mask lsr dst) land 1 = 1 in
        match protocol.Dsim.Protocol.rewrite_bit payload bitv with
        | None -> ()
        | Some payload -> Dsim.Engine.apply e (Dsim.Step.Corrupt (id, payload)))

(* Apply one menu choice and fold the window's actual deliveries into
   the census: processor [dst] hears from exactly the emitters of this
   window intersected with its receive set. *)
let apply_choice ~protocol e census (c : Menu.choice) =
  let em = emitters ~protocol e in
  (match c.Menu.tamper with
  | None -> Dsim.Engine.apply_window e c.Menu.window
  | Some tam ->
      Dsim.Engine.apply_window e
        ~tamper:(fun ~from_id ~til_id ->
          apply_tamper ~protocol e tam ~from_id ~til_id)
        c.Menu.window);
  Array.iteri
    (fun dst m -> census.(dst) <- census.(dst) lor (em.(dst) land m))
    c.Menu.recv_masks

let make_root ~protocol ~opts ~inputs =
  let e =
    Dsim.Engine.init ~protocol ~n:opts.n ~fault_bound:opts.t ~inputs
      ~seed:opts.seed ~record_events:opts.audit ()
  in
  Dsim.Engine.reseed_shared e (Prng.Stream.root opts.seed);
  e

let replay ~protocol ~opts ~inputs ~choices (schedule : int array) =
  let e = make_root ~protocol ~opts ~inputs in
  let census = Array.make opts.n 0 in
  Array.iter
    (fun ci -> apply_choice ~protocol e census choices.(ci))
    schedule;
  (e, census)

(* The configuration's rendering with the census appended, written into
   [b] from empty, so one buffer per expanded parent serves every key it
   renders. *)
let node_key b e census =
  Buffer.clear b;
  Dsim.Engine.config_fingerprint b e;
  Buffer.add_char b '#';
  Array.iter
    (fun m ->
      Buffer.add_string b (string_of_int m);
      Buffer.add_char b '.')
    census;
  Buffer.contents b

(* {2 Invariant checks (per candidate edge)} *)

let check_child ~opts ~valid ~inputs ~before_outputs child census =
  let viols = ref [] in
  let n = opts.n in
  if Dsim.Engine.decision_conflict child then begin
    let rendered =
      Dsim.Engine.decided_values child
      |> List.map (fun (p, v) -> Printf.sprintf "%d=%c" p (bit v))
      |> String.concat ","
    in
    viols := (Agreement, "conflicting outputs: " ^ rendered) :: !viols
  end;
  for p = n - 1 downto 0 do
    match (before_outputs.(p), Dsim.Engine.output child p) with
    | None, Some v ->
        if not (valid ~inputs ~corrupt:opts.corrupt v) then
          viols :=
            ( Validity,
              Printf.sprintf "processor %d decided %c, invalid for inputs %s" p
                (bit v) (inputs_string inputs) )
            :: !viols;
        let heard = popcount census.(p) in
        if heard < opts.quorum then
          viols :=
            ( Quorum,
              Printf.sprintf
                "processor %d decided having heard from %d senders; quorum is %d"
                p heard opts.quorum )
            :: !viols
    | _ -> ()
  done;
  if opts.audit then begin
    let audit_viols =
      Lintkit.Trace_lint.audit ~decision_quorum:opts.quorum child
    in
    List.iter
      (fun v ->
        viols :=
          (Audit, Format.asprintf "%a" Lintkit.Trace_lint.pp_violation v)
          :: !viols)
      audit_viols
  end;
  !viols

(* {2 Canonicalization} *)

(* The relabeled menus whose replays are a schedule's twins, one per
   non-identity symmetry of the root.  Twins exist whenever a canonical
   id is needed: under [symmetry] (it is the dedup key) and under
   [collect] (it is reported). *)
let twin_menus ~opts ~group menu =
  if not (opts.symmetry || opts.collect) then []
  else
    List.filter_map
      (fun pi ->
        if is_identity pi then None
        else Some (Array.map (Menu.permute_choice ~n:opts.n pi) menu.Menu.choices))
      group

(* The least key over an orbit: [best] starts as the identity's key,
   [key] renders one twin.  A direct loop, so a candidate allocates no
   fold closure. *)
let rec orbit_min best key = function
  | [] -> best
  | twin :: rest ->
      let k = key twin in
      orbit_min (if String.compare k best < 0 then k else best) key rest

(* {2 Expansion} *)

type child_rec = {
  digest : string;  (* dedup key digest *)
  canonical_hex : string;  (* canonical state id (= digest hex if no symmetry) *)
  cschedule : int array;
  symmetry_hit : bool;
}

type partial = {
  children_rev : child_rec list;
  pcands : int;
  psym : int;
  pviols_rev : (kind * int array * string) list;
}

let empty_partial = { children_rev = []; pcands = 0; psym = 0; pviols_rev = [] }

let merge_partial acc b =
  {
    children_rev = b.children_rev @ acc.children_rev;
    pcands = acc.pcands + b.pcands;
    psym = acc.psym + b.psym;
    pviols_rev = b.pviols_rev @ acc.pviols_rev;
  }

(* Expand one parent: replay it (and its twins), then try every menu
   choice.  Pure with respect to shared state, so Par_sweep may run it
   on any domain. *)
let expand_parent ~protocol ~opts ~valid ~inputs ~menu ~pmenus schedule =
  let choices = menu.Menu.choices in
  let main, census = replay ~protocol ~opts ~inputs ~choices schedule in
  let before_outputs =
    Array.init opts.n (fun p -> Dsim.Engine.output main p)
  in
  let twins =
    List.map
      (fun pchoices ->
        let te, tc = replay ~protocol ~opts ~inputs ~choices:pchoices schedule in
        (pchoices, te, tc))
      pmenus
  in
  let b = Buffer.create 1024 in
  let acc = ref empty_partial in
  for ci = 0 to Array.length choices - 1 do
    let child = Dsim.Engine.copy main in
    let ccensus = Array.copy census in
    apply_choice ~protocol child ccensus choices.(ci);
    let cschedule = Array.append schedule [| ci |] in
    let viols = check_child ~opts ~valid ~inputs ~before_outputs child ccensus in
    let raw = node_key b child ccensus in
    let canonical =
      orbit_min raw
        (fun (pchoices, te, tc) ->
          let tchild = Dsim.Engine.copy te in
          let tcc = Array.copy tc in
          apply_choice ~protocol tchild tcc pchoices.(ci);
          node_key b tchild tcc)
        twins
    in
    let symmetry_hit = not (String.equal canonical raw) in
    let dedup_key = if opts.symmetry then canonical else raw in
    let rec_ =
      {
        digest = Digest.string dedup_key;
        canonical_hex = Digest.to_hex (Digest.string canonical);
        cschedule;
        symmetry_hit;
      }
    in
    acc :=
      {
        children_rev = rec_ :: !acc.children_rev;
        pcands = !acc.pcands + 1;
        psym = (!acc.psym + if symmetry_hit then 1 else 0);
        pviols_rev =
          List.rev_append
            (List.map (fun (k, d) -> (k, cschedule, d)) viols)
            !acc.pviols_rev;
      }
  done;
  !acc

(* {2 Per-root drivers} *)

type root_outcome = {
  stats : root_stats;
  rviolations : (kind * int array * string) list;  (* in discovery order *)
  rcanonical : string list;
  rschedules : int array list;
}

let explore_root ~protocol ~opts ~valid ~menu ~root_index ~inputs =
  let group = root_group ~inputs ~corrupt:opts.corrupt ~pinned:opts.pinned opts.n in
  let pmenus = twin_menus ~opts ~group menu in
  let visited = Hashtbl.create 4096 in
  let canonical_seen = Hashtbl.create 4096 in
  let note_canonical h =
    if opts.collect && not (Hashtbl.mem canonical_seen h) then
      Hashtbl.replace canonical_seen h ()
  in
  let schedules_rev = ref [] in
  let candidates = ref 0 in
  let dedup_hits = ref 0 in
  let sym_hits = ref 0 in
  let states = ref 0 in
  let layers_rev = ref [] in
  let violations_rev = ref [] in
  let bounded = ref false in
  (* Seed with the root configuration. *)
  let root_e, root_c = replay ~protocol ~opts ~inputs ~choices:menu.Menu.choices [||] in
  let root_key = node_key (Buffer.create 256) root_e root_c in
  Hashtbl.replace visited (Digest.string root_key) ();
  note_canonical (Digest.to_hex (Digest.string root_key));
  if opts.collect && not opts.dedup then schedules_rev := [ [||] ];
  incr states;
  let frontier = ref [| [||] |] in
  let d = ref 0 in
  (try
     while !d < opts.depth && Array.length !frontier > 0 do
       layers_rev := Array.length !frontier :: !layers_rev;
       let partial =
         Par_sweep.map_reduce ~jobs:opts.jobs ~merge:merge_partial
           ~init:empty_partial
           ~f:(expand_parent ~protocol ~opts ~valid ~inputs ~menu ~pmenus)
           !frontier
       in
       candidates := !candidates + partial.pcands;
       sym_hits := !sym_hits + partial.psym;
       let next_rev = ref [] in
       List.iter
         (fun c ->
           note_canonical c.canonical_hex;
           if opts.dedup && Hashtbl.mem visited c.digest then incr dedup_hits
           else begin
             if opts.dedup then Hashtbl.replace visited c.digest ();
             incr states;
             if opts.collect && not opts.dedup then
               schedules_rev := c.cschedule :: !schedules_rev;
             next_rev := c.cschedule :: !next_rev
           end)
         (List.rev partial.children_rev);
       violations_rev :=
         List.rev_append (List.rev partial.pviols_rev) !violations_rev;
       frontier := Array.of_list (List.rev !next_rev);
       incr d;
       (match partial.pviols_rev with [] -> () | _ :: _ -> raise Exit);
       match opts.max_states with
       | Some budget when !states >= budget ->
           bounded := true;
           raise Exit
       | _ -> ()
     done
   with Exit -> ());
  {
    stats =
      {
        root_index;
        inputs_bits = Array.copy inputs;
        group_order = List.length group;
        states = !states;
        candidates = !candidates;
        dedup_hits = !dedup_hits;
        symmetry_hits = !sym_hits;
        layers = List.rev !layers_rev;
        bounded = !bounded;
      };
    rviolations = List.rev !violations_rev;
    rcanonical =
      Hashtbl.fold (fun k () acc -> k :: acc) canonical_seen []
      |> List.sort String.compare;
    rschedules = List.rev !schedules_rev;
  }

(* {2 Top level} *)

let root_vectors ~opts =
  match opts.inputs with
  | Vector v ->
      if Array.length v <> opts.n then
        invalid_arg "Explore.run: inputs vector length <> n";
      ([ Array.copy v ], 0)
  | Unanimous b -> ([ Array.make opts.n b ], 0)
  | Split -> ([ Array.init opts.n (fun i -> i land 1 = 0) ], 0)
  | All ->
      let all =
        List.init (1 lsl opts.n) (fun m ->
            Array.init opts.n (fun i -> (m lsr i) land 1 = 1))
      in
      if not opts.symmetry then (all, 0)
      else
        let perms =
          List.filter
            (fixes_roles ~corrupt:opts.corrupt ~pinned:opts.pinned)
            (all_perms opts.n)
        in
        let keep = List.filter (is_canonical_root perms) all in
        (keep, List.length all - List.length keep)

let run ~protocol ~valid opts =
  if opts.n <= 0 || opts.n > 16 then invalid_arg "Explore.run: n out of range";
  if opts.t < 0 || opts.t >= opts.n then invalid_arg "Explore.run: t out of range";
  if opts.corrupt > opts.t then
    invalid_arg "Explore.run: corrupt sources exceed the fault bound t";
  let menu =
    Menu.build ~n:opts.n ~t:opts.t ~family:opts.family ~corrupt:opts.corrupt
  in
  let roots, collapsed = root_vectors ~opts in
  let outcomes =
    List.mapi
      (fun root_index inputs ->
        (root_index, inputs, explore_root ~protocol ~opts ~valid ~menu ~root_index ~inputs))
      roots
  in
  let violations =
    List.concat_map
      (fun (root_index, inputs, o) ->
        List.map
          (fun (kind, schedule, detail) ->
            {
              kind;
              root = root_index;
              root_inputs = Array.copy inputs;
              vdepth = Array.length schedule;
              schedule;
              detail;
            })
          o.rviolations)
      outcomes
    |> List.sort compare_violation
  in
  let violations_total = List.length violations in
  let cap = 25 in
  let violations = List.filteri (fun i _ -> i < cap) violations in
  let stats = List.map (fun (_, _, o) -> o.stats) outcomes in
  let canonical =
    if not opts.collect then []
    else
      List.concat_map (fun (_, _, o) -> o.rcanonical) outcomes
      |> List.sort_uniq String.compare
  in
  let schedules =
    if opts.collect && not opts.dedup then
      List.concat_map (fun (_, _, o) -> o.rschedules) outcomes
    else []
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  {
    protocol_name = protocol.Dsim.Protocol.name;
    opts;
    menu_size = Menu.size menu;
    roots = stats;
    roots_collapsed = collapsed;
    violations;
    violations_total;
    total_states = sum (fun s -> s.states);
    total_candidates = sum (fun s -> s.candidates);
    total_dedup_hits = sum (fun s -> s.dedup_hits);
    total_symmetry_hits = sum (fun s -> s.symmetry_hits);
    bounded = List.exists (fun (s : root_stats) -> s.bounded) stats;
    canonical;
    schedules;
  }

(* {2 Counterexample replay} *)

type replay_line = {
  window : int;
  choice : string;
  new_decisions : (int * bool) list;
}

type replay_report = {
  lines : replay_line list;
  final_decisions : (int * bool) list;
  conflict : bool;
  audit_violations : string list;
}

(* Deterministically re-execute a schedule with full event recording
   and the trace auditor: the independent second opinion on a violation
   found by the incremental checks. *)
let replay_schedule ~protocol ~opts ~inputs schedule =
  let menu =
    Menu.build ~n:opts.n ~t:opts.t ~family:opts.family ~corrupt:opts.corrupt
  in
  let opts = { opts with audit = true } in
  let e = make_root ~protocol ~opts ~inputs in
  let census = Array.make opts.n 0 in
  let lines = ref [] in
  Array.iteri
    (fun w ci ->
      let c = Menu.choice menu ci in
      let before = Array.init opts.n (fun p -> Dsim.Engine.output e p) in
      apply_choice ~protocol e census c;
      let news = ref [] in
      for p = opts.n - 1 downto 0 do
        match (before.(p), Dsim.Engine.output e p) with
        | None, Some v -> news := (p, v) :: !news
        | _ -> ()
      done;
      lines :=
        { window = w + 1; choice = Menu.choice_to_string c; new_decisions = !news }
        :: !lines)
    schedule;
  {
    lines = List.rev !lines;
    final_decisions = Dsim.Engine.decided_values e;
    conflict = Dsim.Engine.decision_conflict e;
    audit_violations =
      Lintkit.Trace_lint.audit ~decision_quorum:opts.quorum e
      |> List.map (fun v -> Format.asprintf "%a" Lintkit.Trace_lint.pp_violation v);
  }

(* Canonical state id a schedule lands on — the containment probe used
   by the exhaustiveness qcheck. *)
let schedule_state ~protocol ~opts ~inputs schedule =
  let menu =
    Menu.build ~n:opts.n ~t:opts.t ~family:opts.family ~corrupt:opts.corrupt
  in
  let group = root_group ~inputs ~corrupt:opts.corrupt ~pinned:opts.pinned opts.n in
  let b = Buffer.create 256 in
  let key choices =
    let e, census = replay ~protocol ~opts ~inputs ~choices schedule in
    node_key b e census
  in
  let canonical =
    orbit_min (key menu.Menu.choices) key (twin_menus ~opts ~group menu)
  in
  Digest.to_hex (Digest.string canonical)

(* The checkable-model registry: each entry packs a protocol with the
   safety predicate the explorer enforces on it — the decision quorum
   and the validity rule — plus instantiability checks, so the CLI,
   the tests and the repro table all drive the same definitions.

   Mutants live here too.  A mutant is the same protocol built from a
   threshold declaration with one threshold broken (the classic
   mutation-testing move); the explorer must find a minimal violating
   schedule for each, which is the negative control proving the checker
   can actually see bugs, and the quorum lint must flag the
   declaration. *)

open Protocols

type packed = Packed : ('s, 'm) Dsim.Protocol.t -> packed

type t = {
  name : string;
  describe : string;
  mutant : bool;
  packed : packed;
  quorums : Quorums.t;  (* the declaration [packed] was built from *)
  claim : Symexpr.t option;
      (* the Byzantine resilience bound over n this entry advertises *)
  quorum : n:int -> t:int -> int;
  valid : inputs:bool array -> corrupt:int -> bool -> bool;
  feasible : n:int -> t:int -> (unit, string) result;
  notes : n:int -> t:int -> corrupt:int -> string list;
  pinned : int;
      (* protocol-distinguished pid prefix (an RBC origin): the symmetry
         reduction must fix these pids pointwise, see Explore.options *)
}

(* Binary consensus validity: a decided value must be some non-corrupt
   processor's input (corrupt sources are the prefix [0, corrupt)). *)
let consensus_valid ~inputs ~corrupt v =
  let n = Array.length inputs in
  let ok = ref false in
  for i = corrupt to n - 1 do
    if Bool.equal inputs.(i) v then ok := true
  done;
  !ok

(* Reliable-broadcast validity: whatever is accepted for a correct
   origin's instance must be the origin's input; a corrupt origin may
   get anything accepted. *)
let rbc_valid ~origin ~inputs ~corrupt v =
  origin < corrupt || Bool.equal inputs.(origin) v

let ok_if cond msg = if cond then Ok () else Error msg

let no_notes ~n:_ ~t:_ ~corrupt:_ = []

let resilience_notes ~crash ~byz ~name ~n ~t ~corrupt =
  let crash n = Symexpr.eval ~n ~t:0 crash in
  let byz n = Symexpr.eval ~n ~t:0 byz in
  List.concat
    [
      (if t > crash n then
         [
           Printf.sprintf
             "t = %d exceeds %s's tolerated silencing bound %d at n = %d; \
              violations may be genuine protocol behaviour"
             t name (crash n) n;
         ]
       else []);
      (if corrupt > 0 && corrupt > byz n then
         [
           Printf.sprintf
             "%d corrupt source(s) exceed %s's Byzantine resilience %d at \
              n = %d; violations may be genuine protocol behaviour"
             corrupt name (byz n) n;
         ]
       else []);
    ]

(* The largest t below n/5 and below n/3. *)
let fifth_bound = Symexpr.(div (sub n_ (int_ 1)) 5)
let third_bound = Symexpr.(div (sub n_ (int_ 1)) 3)

let ben_or_like ~mutant ~describe ~quorums protocol =
  let name = quorums.Quorums.name in
  {
    name;
    describe;
    mutant;
    packed = Packed protocol;
    quorums;
    claim = Some fifth_bound;
    quorum = (fun ~n ~t -> n - t);
    valid = consensus_valid;
    feasible =
      (fun ~n ~t ->
        ok_if (n >= (2 * t) + 1)
          (Printf.sprintf
             "ben-or's majority logic needs n >= 2t + 1 (got n = %d, t = %d)" n
             t));
    notes =
      resilience_notes ~name
        ~crash:Symexpr.(div (sub n_ (int_ 1)) 2)
        ~byz:fifth_bound;
    pinned = 0;
  }

let bracha_like ~mutant ~describe ~quorums protocol =
  let name = quorums.Quorums.name in
  {
    name;
    describe;
    mutant;
    packed = Packed protocol;
    quorums;
    claim = Some third_bound;
    quorum = (fun ~n:_ ~t -> (2 * t) + 1);
    valid = consensus_valid;
    (* Bracha instantiates and runs below n = 3t + 1; exceeding the
       resilience bound is reported through [notes], not an error, so
       the explorer can probe such points deliberately. *)
    feasible = (fun ~n ~t -> ok_if (n >= t + 1) "bracha needs n >= t + 1");
    notes = resilience_notes ~name ~crash:third_bound ~byz:third_bound;
    pinned = 0;
  }

let rbc_like ~mutant ~describe ~quorums protocol =
  let name = quorums.Quorums.name in
  {
    name;
    describe;
    mutant;
    packed = Packed protocol;
    quorums;
    claim = Some third_bound;
    quorum = (fun ~n:_ ~t -> (2 * t) + 1);
    valid = rbc_valid ~origin:0;
    feasible = (fun ~n:_ ~t:_ -> Ok ());
    notes = resilience_notes ~name ~crash:third_bound ~byz:third_bound;
    pinned = 1;
  }

(* The mutants' declarations: each is its family's sound declaration
   with thresholds broken, declared here so lint findings land on the
   mutant rather than on the protocol. *)
let ben_or_quorum_1 =
  Quorums.override Ben_or.quorums ~name:"ben-or!quorum-1" ~pos:__POS__
    [ ("decide_at", Symexpr.int_ 1) ]

let bracha_quorum_t =
  let max_1_t = Symexpr.(max_ (int_ 1) t_) in
  Quorums.override Bracha.quorums ~name:"bracha!quorum-t" ~pos:__POS__
    [
      ("decide_at", max_1_t);
      ("rbc_echo_quorum", max_1_t);
      ("rbc_ready_resend", max_1_t);
      ("rbc_accept_quorum", max_1_t);
    ]

let rbc_quorum_t =
  Quorums.override Reliable_broadcast.quorums ~name:"rbc!quorum-t" ~pos:__POS__
    Symexpr.
      [ ("rbc_ready_resend", int_ 1); ("rbc_accept_quorum", max_ (int_ 1) t_) ]

let all =
  [
    ben_or_like ~mutant:false
      ~describe:"Ben-Or binary consensus (decide on t+1 matching proposals)"
      ~quorums:Ben_or.quorums (Ben_or.protocol ());
    bracha_like ~mutant:false
      ~describe:"Bracha agreement over reliable broadcast"
      ~quorums:Bracha.quorums (Bracha.protocol ());
    {
      name = "lewko";
      describe = "the paper's Section 3 variant (Theorem 4 thresholds)";
      mutant = false;
      packed = Packed (Lewko_variant.protocol ());
      quorums = Thresholds.quorums;
      claim = None;
      quorum = (fun ~n ~t -> n - (2 * t));
      valid = consensus_valid;
      feasible =
        (fun ~n ~t ->
          ok_if
            (Thresholds.feasible ~n ~t)
            (Printf.sprintf
               "no valid thresholds: lewko needs t < n / 6 (got n = %d, \
                t = %d; try --t 0)"
               n t));
      notes = no_notes;
      pinned = 0;
    };
    rbc_like ~mutant:false
      ~describe:"a single reliable-broadcast instance (origin 0)"
      ~quorums:Reliable_broadcast.quorums (Rbc_once.protocol ());
    ben_or_like ~mutant:true
      ~describe:"MUTANT: Ben-Or deciding on a single matching proposal"
      ~quorums:ben_or_quorum_1
      (Ben_or.protocol ~name:"ben-or!quorum-1" ~quorums:ben_or_quorum_1 ());
    bracha_like ~mutant:true
      ~describe:
        "MUTANT: Bracha with every 2t+1-style quorum (validated echoes, \
         readies, accepts, matching Dec votes) lowered to t"
      ~quorums:bracha_quorum_t
      (Bracha.protocol ~name:"bracha!quorum-t" ~quorums:bracha_quorum_t ());
    rbc_like ~mutant:true
      ~describe:
        "MUTANT: reliable broadcast going ready on one echo and accepting \
         on t readies"
      ~quorums:rbc_quorum_t
      (Rbc_once.protocol ~name:"rbc!quorum-t" ~quorums:rbc_quorum_t ());
  ]

let lint_entries =
  List.map
    (fun m -> { Lintkit.Quorum_lint.decl = m.quorums; claim = m.claim })
    all

let names = List.map (fun m -> m.name) all
let find name = List.find_opt (fun m -> String.equal m.name name) all

let options m ~n ~t =
  { (Explore.default_options ~n ~t ~quorum:(m.quorum ~n ~t)) with
    Explore.pinned = m.pinned }

let run m (opts : Explore.options) =
  (match m.feasible ~n:opts.Explore.n ~t:opts.Explore.t with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mcheck.Model.run: " ^ e));
  match m.packed with
  | Packed protocol -> Explore.run ~protocol ~valid:m.valid opts

let replay m (opts : Explore.options) ~inputs schedule =
  match m.packed with
  | Packed protocol -> Explore.replay_schedule ~protocol ~opts ~inputs schedule

let schedule_state m (opts : Explore.options) ~inputs schedule =
  match m.packed with
  | Packed protocol -> Explore.schedule_state ~protocol ~opts ~inputs schedule

(* The exact integer decision procedure behind the quorum lint layer
   (R16-R18).  Two kinds of evidence: hand-picked obligations whose
   truth we know from the paper's arithmetic (including the floor
   boundary cases that a rational relaxation would get wrong), and a
   qcheck differential proving [solve] agrees with brute force on
   box-bounded random systems. *)

open Protocols

let e_n = Symexpr.n_
let e_t = Symexpr.t_
let k = Symexpr.int_

(* t >= 0, n >= 1 ambient; plus the per-family byzantine bound. *)
let region_ambient = [ e_t; Symexpr.ge e_n (k 1) ]

let region_frac denom =
  (* t <= (n - 1) / denom *)
  Symexpr.ge (Symexpr.div (Symexpr.sub e_n (k 1)) denom) e_t :: region_ambient

let check_verdict name expected got =
  let show = function
    | Symexpr.Holds -> "Holds"
    | Symexpr.Fails { n; t } -> Printf.sprintf "Fails(n=%d,t=%d)" n t
    | Symexpr.Unknown why -> "Unknown: " ^ why
  in
  match (expected, got) with
  | `Holds, Symexpr.Holds -> ()
  | `Fails, Symexpr.Fails { n; t } ->
      (* The witness must actually violate the goal — re-checked by the
         caller; here just accept. *)
      ignore (n, t)
  | _ ->
      Alcotest.failf "%s: expected %s, got %s" name
        (match expected with `Holds -> "Holds" | `Fails -> "Fails _")
        (show got)

let test_floor_semantics () =
  (* Bracha/RBC echo quorum fits inside the honest set only because
     the division floors: ((n + t) / 2) + 1 <= n - t over t <= (n-1)/3.
     Over the rationals the boundary n = 3t + 1 would fail. *)
  let echo = Symexpr.add (Symexpr.div (Symexpr.add e_n e_t) 2) (k 1) in
  let goal = Symexpr.ge (Symexpr.sub e_n e_t) echo in
  check_verdict "echo quorum reachable" `Holds
    (Symexpr.implies ~region:(region_frac 3) goal);
  (* Tighten the region by one: t <= (n - 1) / 2 admits n = 2t + 1,
     where n - t = t + 1 < ((n + t) / 2) + 1 for t >= 1. *)
  let v = Symexpr.implies ~region:(region_frac 2) goal in
  check_verdict "echo quorum too large at t < n/2" `Fails v;
  match v with
  | Symexpr.Fails { n; t } ->
      Alcotest.(check bool)
        "witness violates goal" true
        (Symexpr.eval ~n ~t goal < 0);
      Alcotest.(check bool)
        "witness inside region" true
        (List.for_all (fun c -> Symexpr.eval ~n ~t c >= 0) (region_frac 2))
  | _ -> assert false

let test_intersection_bounds () =
  (* Two quorums of size q intersect in >= 2q - n pids; asking for a
     t+1 intersection of (n - t)-quorums is exactly n >= 3t + 1. *)
  let q = Symexpr.sub e_n e_t in
  let intersection = Symexpr.sub (Symexpr.scale 2 q) e_n in
  let goal = Symexpr.ge intersection (Symexpr.add e_t (k 1)) in
  check_verdict "n-t quorums intersect above t at t<n/3" `Holds
    (Symexpr.implies ~region:(region_frac 3) goal);
  check_verdict "but not at t<n/2" `Fails
    (Symexpr.implies ~region:(region_frac 2) goal)

let test_mutant_arithmetic () =
  (* The ben-or!quorum-1 mutant: decide_at = 1 is satisfiable by the
     faulty pids alone as soon as t >= 1. *)
  let region = Symexpr.ge e_t (k 1) :: region_frac 5 in
  (match Symexpr.solve (Symexpr.le (k 1) e_t :: region) with
  | Some (n, t) ->
      Alcotest.(check bool) "mutant witness in region" true
        (t >= 1 && 1 <= t && List.for_all (fun c -> Symexpr.eval ~n ~t c >= 0) region)
  | None -> Alcotest.fail "decide_at = 1 should be fault-satisfiable");
  (* The sound default decide_at = t + 1 is not. *)
  match Symexpr.solve (Symexpr.le (Symexpr.add e_t (k 1)) e_t :: region) with
  | Some _ -> Alcotest.fail "t + 1 <= t should be infeasible"
  | None -> ()

let test_max_min_and_theorem4 () =
  (* max(1, t) <= t is feasible exactly when t >= 1 (the bracha mutant
     hook), and max(1, t) >= t + 1 fails in any region with t >= 1. *)
  let hook = Symexpr.max_ (k 1) e_t in
  let region = region_frac 3 in
  check_verdict "max(1,t) not above t+1" `Fails
    (Symexpr.implies ~region (Symexpr.ge hook (Symexpr.add e_t (k 1))));
  check_verdict "max(1,t) >= 1 everywhere" `Holds
    (Symexpr.implies ~region (Symexpr.ge hook (k 1)));
  (* Theorem 4 thresholds at the region edge: with T1 = T2 = n - 2t,
     T3 = n - 3t, the six validity conditions hold for t <= (n-1)/6 and
     2*T3 > n fails once t is allowed up to (n-1)/5. *)
  let t1 = Symexpr.sub e_n (Symexpr.scale 2 e_t) in
  let t3 = Symexpr.sub e_n (Symexpr.scale 3 e_t) in
  let double_t3 = Symexpr.scale 2 t3 in
  check_verdict "2*T3 > n inside t <= (n-1)/6" `Holds
    (Symexpr.implies ~region:(region_frac 6) (Symexpr.gt double_t3 e_n));
  check_verdict "2*T3 > n breaks at t <= (n-1)/5" `Fails
    (Symexpr.implies ~region:(region_frac 5) (Symexpr.gt double_t3 e_n));
  check_verdict "T2 >= T3 + t" `Holds
    (Symexpr.implies ~region:(region_frac 6)
       (Symexpr.ge t1 (Symexpr.add t3 e_t)))

(* ------------------------------------------------------------------ *)
(* Differential: solve vs brute force on box-bounded random systems.   *)

let gen_expr =
  let open QCheck.Gen in
  let base =
    oneof
      [ return Symexpr.n_;
        return Symexpr.t_;
        map Symexpr.int_ (int_range (-8) 8) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then base
      else
        frequency
          [ (2, base);
            (2, map2 Symexpr.add (self (depth - 1)) (self (depth - 1)));
            (2, map2 Symexpr.sub (self (depth - 1)) (self (depth - 1)));
            (1,
             map2 Symexpr.scale (int_range (-3) 3) (self (depth - 1)));
            (1,
             map2
               (fun e d -> Symexpr.div e d)
               (self (depth - 1))
               (oneofl [ 2; 3; 5; 6 ]));
            (1, map2 Symexpr.max_ (self (depth - 1)) (self (depth - 1)));
            (1, map2 Symexpr.min_ (self (depth - 1)) (self (depth - 1)))
          ])
    3

let gen_system =
  QCheck.Gen.(list_size (int_range 1 4) gen_expr)

let arb_system =
  QCheck.make ~print:(fun sys ->
      String.concat " /\\ "
        (List.map (fun e -> Symexpr.to_string e ^ " >= 0") sys))
    gen_system

let box lo hi =
  (* lo <= n <= hi, lo <= t <= hi as symbolic constraints. *)
  [ Symexpr.ge Symexpr.n_ (Symexpr.int_ lo);
    Symexpr.le Symexpr.n_ (Symexpr.int_ hi);
    Symexpr.ge Symexpr.t_ (Symexpr.int_ lo);
    Symexpr.le Symexpr.t_ (Symexpr.int_ hi) ]

let brute_feasible sys lo hi =
  let sat = ref false in
  for n = lo to hi do
    for t = lo to hi do
      if
        (not !sat)
        && List.for_all (fun c -> Symexpr.eval ~n ~t c >= 0) sys
      then sat := true
    done
  done;
  !sat

let diff_feasible =
  QCheck.Test.make ~count:100 ~name:"solve agrees with brute force on a box"
    arb_system (fun sys ->
      let lo = -3 and hi = 60 in
      let bounded = box lo hi @ sys in
      match Symexpr.solve bounded with
      | exception Symexpr.Undecidable _ -> QCheck.assume_fail ()
      | None -> not (brute_feasible sys lo hi)
      | Some (n, t) ->
          (* The returned witness must satisfy the bounded system. *)
          n >= lo && n <= hi && t >= lo && t <= hi
          && List.for_all (fun c -> Symexpr.eval ~n ~t c >= 0) sys
          && brute_feasible sys lo hi)

let diff_implies =
  QCheck.Test.make ~count:100
    ~name:"implies agrees with pointwise truth on a box"
    (QCheck.pair arb_system arb_system)
    (fun (region_extra, goals) ->
      let goal =
        match goals with [] -> Symexpr.int_ 0 | g :: _ -> g
      in
      let lo = 0 and hi = 40 in
      let region = box lo hi @ region_extra in
      let pointwise_holds = ref true in
      for n = lo to hi do
        for t = lo to hi do
          if
            List.for_all (fun c -> Symexpr.eval ~n ~t c >= 0) region_extra
            && Symexpr.eval ~n ~t goal < 0
          then pointwise_holds := false
        done
      done;
      match Symexpr.implies ~region goal with
      | exception Symexpr.Undecidable _ -> QCheck.assume_fail ()
      | Symexpr.Unknown _ -> QCheck.assume_fail ()
      | Symexpr.Holds -> !pointwise_holds
      | Symexpr.Fails { n; t } ->
          (not !pointwise_holds)
          && Symexpr.eval ~n ~t goal < 0
          && List.for_all (fun c -> Symexpr.eval ~n ~t c >= 0) region)

let suite =
  [
    Alcotest.test_case "floor semantics at the quorum boundary" `Quick
      test_floor_semantics;
    Alcotest.test_case "quorum intersection bounds" `Quick
      test_intersection_bounds;
    Alcotest.test_case "mutant vs sound threshold arithmetic" `Quick
      test_mutant_arithmetic;
    Alcotest.test_case "max/min splits and Theorem 4 boundary" `Quick
      test_max_min_and_theorem4;
    Test_seed.to_alcotest diff_feasible;
    Test_seed.to_alcotest diff_implies;
  ]

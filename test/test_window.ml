(* Tests for acceptable windows (Definition 1). *)

let test_uniform_fault_free () =
  let w = Dsim.Window.uniform ~n:5 () in
  Alcotest.(check bool) "fault free" true (Dsim.Window.is_fault_free w ~n:5);
  Alcotest.(check (list int)) "full receive set" [ 0; 1; 2; 3; 4 ]
    (Dsim.Window.receive_set w 0);
  (match Dsim.Window.validate ~n:5 ~t:1 w with
  | Ok () -> ()
  | Error m -> Alcotest.fail m)

let test_uniform_silenced () =
  let w = Dsim.Window.uniform ~n:5 ~silenced:[ 2 ] () in
  Alcotest.(check (list int)) "excludes silenced" [ 0; 1; 3; 4 ]
    (Dsim.Window.receive_set w 3);
  Alcotest.(check bool) "not fault free" false (Dsim.Window.is_fault_free w ~n:5)

let test_validate_receive_too_small () =
  let w = Dsim.Window.uniform ~n:6 ~silenced:[ 0; 1; 2 ] () in
  (match Dsim.Window.validate ~n:6 ~t:2 w with
  | Ok () -> Alcotest.fail "should reject |S_i| < n - t"
  | Error _ -> ());
  match Dsim.Window.validate ~n:6 ~t:3 w with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_validate_too_many_resets () =
  let w = Dsim.Window.uniform ~n:6 ~resets:[ 0; 1; 2 ] () in
  (match Dsim.Window.validate ~n:6 ~t:2 w with
  | Ok () -> Alcotest.fail "should reject |R| > t"
  | Error _ -> ());
  match Dsim.Window.validate ~n:6 ~t:3 w with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_validate_out_of_range () =
  let w = Dsim.Window.make ~receive_sets:(Array.make 4 [ 0; 1; 2; 9 ]) ~resets:[] in
  (match Dsim.Window.validate ~n:4 ~t:1 w with
  | Ok () -> Alcotest.fail "should reject pid out of range"
  | Error _ -> ());
  let w = Dsim.Window.make ~receive_sets:(Array.make 4 [ 0; 1; 2 ]) ~resets:[ -1 ] in
  match Dsim.Window.validate ~n:4 ~t:1 w with
  | Ok () -> Alcotest.fail "should reject negative reset pid"
  | Error _ -> ()

let test_validate_wrong_arity () =
  let w = Dsim.Window.make ~receive_sets:(Array.make 3 [ 0; 1; 2 ]) ~resets:[] in
  match Dsim.Window.validate ~n:4 ~t:1 w with
  | Ok () -> Alcotest.fail "should reject wrong receive-set count"
  | Error _ -> ()

let test_normalization () =
  let w = Dsim.Window.make ~receive_sets:[| [ 2; 0; 2; 1 ] |] ~resets:[ 0; 0 ] in
  Alcotest.(check (list int)) "sorted dedup" [ 0; 1; 2 ] (Dsim.Window.receive_set w 0);
  Alcotest.(check (list int)) "resets dedup" [ 0 ] (Dsim.Window.resets w)

let test_hybrid () =
  let w =
    Dsim.Window.hybrid ~n:6 ~j:3 ~s0:[ 0; 1; 2; 3 ] ~s1:[ 2; 3; 4; 5 ] ~r0:[ 0 ]
      ~r1:[ 5 ]
  in
  Alcotest.(check (list int)) "low coords use s0" [ 0; 1; 2; 3 ]
    (Dsim.Window.receive_set w 0);
  Alcotest.(check (list int)) "high coords use s1" [ 2; 3; 4; 5 ]
    (Dsim.Window.receive_set w 4);
  Alcotest.(check (list int)) "mixed resets" [ 0; 5 ] (Dsim.Window.resets w)

let test_hybrid_endpoints () =
  let s0 = [ 0; 1; 2 ] and s1 = [ 1; 2; 3 ] in
  let w0 = Dsim.Window.hybrid ~n:4 ~j:0 ~s0 ~s1 ~r0:[ 0 ] ~r1:[ 3 ] in
  Alcotest.(check (list int)) "j=0 all s1" s1 (Dsim.Window.receive_set w0 0);
  Alcotest.(check (list int)) "j=0 resets from r1" [ 3 ] (Dsim.Window.resets w0);
  let wn = Dsim.Window.hybrid ~n:4 ~j:4 ~s0 ~s1 ~r0:[ 0 ] ~r1:[ 3 ] in
  Alcotest.(check (list int)) "j=n all s0" s0 (Dsim.Window.receive_set wn 3);
  Alcotest.(check (list int)) "j=n resets from r0" [ 0 ] (Dsim.Window.resets wn)

(* Masks are the ground truth and lists a projected view; round-trip
   through [of_masks] must reproduce the view exactly, and a window
   rebuilt from the projected lists must agree on every observable. *)
let prop_of_masks_roundtrip =
  QCheck.Test.make ~count:200 ~name:"of_masks round-trips through to_lists"
    QCheck.small_int (fun seed ->
      let rng = Prng.Stream.root (seed + 4177) in
      let n = 1 + Prng.Stream.int_below rng 12 in
      let sets =
        Array.init n (fun _ ->
            List.filter (fun _ -> Prng.Stream.bool rng)
              (List.init n (fun i -> i)))
      in
      let resets =
        List.filter (fun _ -> Prng.Stream.bernoulli rng 0.2)
          (List.init n (fun i -> i))
      in
      (* [of_masks] takes ownership of the array, so hand it copies. *)
      let masks =
        Array.map (fun s -> Dsim.Bitset.of_list ~capacity:n s) sets
      in
      let w = Dsim.Window.of_masks ~resets (Array.map Dsim.Bitset.copy masks) in
      let pool = List.init (n + 4) (fun i -> i - 2) in
      let slots = List.init n (fun i -> i) in
      let view_ok =
        List.for_all
          (fun i ->
            Dsim.Window.receive_set w i = Dsim.Bitset.to_list masks.(i)
            && Dsim.Window.receive_set_size w i = List.length sets.(i)
            && List.for_all
                 (fun src ->
                   Dsim.Window.allows w ~dst:i ~src = List.mem src sets.(i))
                 pool)
          slots
      in
      let rebuilt =
        Dsim.Window.make ~receive_sets:(Dsim.Window.to_lists w) ~resets
      in
      view_ok
      && Dsim.Window.resets w = Dsim.Window.resets rebuilt
      && List.for_all
           (fun i ->
             Dsim.Window.receive_set w i = Dsim.Window.receive_set rebuilt i)
           slots
      && Dsim.Window.is_fault_free w ~n = Dsim.Window.is_fault_free rebuilt ~n)

(* Pids straddling the 0x10000 mask clamp: below it they live in the
   shared mask, at or above it in the extra tail — sizes, membership,
   projection and validation must not notice the seam. *)
let test_clamp_edge () =
  let clamp = 0x10000 in
  let n = clamp + 4 in
  let w = Dsim.Window.uniform ~n ~silenced:[ clamp - 1; clamp + 1 ] () in
  Alcotest.(check int) "size spans the clamp" (n - 2)
    (Dsim.Window.receive_set_size w 0);
  List.iter
    (fun (src, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "allows src=%d" src)
        expect
        (Dsim.Window.allows w ~dst:0 ~src))
    [
      (clamp - 2, true);
      (clamp - 1, false);
      (clamp, true);
      (clamp + 1, false);
      (clamp + 3, true);
      (n, false);
    ];
  Alcotest.(check int) "projection spans the clamp" (n - 2)
    (List.length (Dsim.Window.receive_set w 0));
  (match Dsim.Window.validate ~n ~t:2 w with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* A pid past the clamp that is also past n must still be rejected —
     the offender sits in the extra tail, out of the popcount's sight.
     Small arity keeps [make] cheap. *)
  let bad =
    Dsim.Window.make
      ~receive_sets:(Array.make 4 [ 0; 1; 2; clamp + 9 ])
      ~resets:[]
  in
  match Dsim.Window.validate ~n:4 ~t:0 bad with
  | Ok () -> Alcotest.fail "should reject pid past the clamp"
  | Error m ->
      Alcotest.(check string) "names the offending pid"
        (Printf.sprintf "S_0 contains out-of-range pid %d (n = 4)" (clamp + 9))
        m

let suite =
  [
    Alcotest.test_case "uniform fault free" `Quick test_uniform_fault_free;
    Alcotest.test_case "uniform silenced" `Quick test_uniform_silenced;
    Alcotest.test_case "validate small receive set" `Quick test_validate_receive_too_small;
    Alcotest.test_case "validate too many resets" `Quick test_validate_too_many_resets;
    Alcotest.test_case "validate out of range" `Quick test_validate_out_of_range;
    Alcotest.test_case "validate wrong arity" `Quick test_validate_wrong_arity;
    Alcotest.test_case "normalization" `Quick test_normalization;
    Alcotest.test_case "hybrid" `Quick test_hybrid;
    Alcotest.test_case "hybrid endpoints" `Quick test_hybrid_endpoints;
    Alcotest.test_case "clamp edge" `Quick test_clamp_edge;
    Test_seed.to_alcotest prop_of_masks_roundtrip;
  ]

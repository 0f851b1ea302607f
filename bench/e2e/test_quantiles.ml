(* The benchmark's order statistics against sort-and-scan references. *)

module Q = E2e_quantiles.Quantiles

(* Smallest sample v with at least pct% of the samples <= v: the
   nearest-rank definition, evaluated without any rank arithmetic. *)
let ref_percentile samples pct =
  let n = List.length samples in
  samples
  |> List.filter (fun v ->
         List.length (List.filter (fun y -> Float.compare y v <= 0) samples) * 100
         >= pct * n)
  |> List.fold_left Float.min Float.infinity

(* 1-based position of the percentile found by scanning ranks. *)
let ref_rank ~n pct =
  let rec go i = if i * 100 >= pct * n then i else go (i + 1) in
  max 1 (go 0)

let ref_highest ~n candidates =
  candidates
  |> List.filter (fun pct -> n >= 1 && n - ref_rank ~n pct >= 10)
  |> List.fold_left (fun acc pct -> match acc with Some b when b >= pct -> acc | _ -> Some pct) None

let pcts = [ 0; 1; 25; 50; 75; 90; 95; 99; 100 ]

(* Small integer-valued floats so ties are common. *)
let gen_samples =
  QCheck2.Gen.(list_size (int_range 1 400) (map float_of_int (int_range 0 30)))

let print_samples = QCheck2.Print.(list float)

let prop_percentile =
  QCheck2.Test.make ~count:500 ~name:"percentile = sort-and-scan reference"
    ~print:print_samples gen_samples (fun samples ->
      let s = Q.sorted (Array.of_list samples) in
      List.for_all
        (fun pct -> Float.equal (Q.percentile s pct) (ref_percentile samples pct))
        pcts)

let prop_highest =
  QCheck2.Test.make ~count:500 ~name:"highest supported tail = reference"
    QCheck2.Gen.(int_range 1 3000)
    (fun n ->
      let candidates = [ 90; 95; 99 ] in
      Q.highest_supported ~n candidates = ref_highest ~n candidates
      && Q.highest_supported ~n [ 50 ] = ref_highest ~n [ 50 ])

let prop_spread =
  QCheck2.Test.make ~count:500 ~name:"median and quartiles = reference, ordered"
    ~print:print_samples gen_samples (fun samples ->
      let sp = Q.spread (Q.sorted (Array.of_list samples)) in
      Float.equal sp.Q.p25 (ref_percentile samples 25)
      && Float.equal sp.Q.p50 (ref_percentile samples 50)
      && Float.equal sp.Q.p75 (ref_percentile samples 75)
      && sp.Q.p25 <= sp.Q.p50 && sp.Q.p50 <= sp.Q.p75)

let test_p50_needs_twenty () =
  Alcotest.(check (option int)) "19 samples: no p50" None (Q.highest_supported ~n:19 [ 50 ]);
  Alcotest.(check (option int)) "20 samples: p50" (Some 50) (Q.highest_supported ~n:20 [ 50 ]);
  Alcotest.(check (option int)) "99 samples: no p90" None (Q.highest_supported ~n:99 [ 90; 95; 99 ]);
  Alcotest.(check (option int)) "100 samples: p90" (Some 90)
    (Q.highest_supported ~n:100 [ 90; 95; 99 ]);
  Alcotest.(check (option int)) "1000 samples: p99" (Some 99)
    (Q.highest_supported ~n:1000 [ 90; 95; 99 ])

let test_exact_ranks () =
  (* float rounding would put p90 of 100 at rank 91 *)
  Alcotest.(check int) "p90 of 100" 90 (Q.rank ~n:100 90);
  Alcotest.(check int) "p99 of 1000" 990 (Q.rank ~n:1000 99);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Q.beyond ~n:1000 99)

let test_ties () =
  let s = Q.sorted [| 3.0; 1.0; 3.0; 3.0; 2.0 |] in
  Alcotest.(check (float 0.0)) "median of ties" 3.0 (Q.median s);
  Alcotest.(check (float 0.0)) "p25" 2.0 (Q.percentile s 25);
  let flat = Q.sorted (Array.make 50 7.0) in
  let sp = Q.spread flat in
  Alcotest.(check (float 0.0)) "flat iqr" 0.0 (Q.relative_iqr sp)

let test_single_rep () =
  let s = Q.sorted [| 42.0 |] in
  let sp = Q.spread s in
  Alcotest.(check (float 0.0)) "p25" 42.0 sp.Q.p25;
  Alcotest.(check (float 0.0)) "p50" 42.0 sp.Q.p50;
  Alcotest.(check (float 0.0)) "p75" 42.0 sp.Q.p75;
  Alcotest.(check (float 0.0)) "p99" 42.0 (Q.percentile s 99);
  Alcotest.(check (option int)) "no tail" None (Q.highest_supported ~n:1 [ 50; 90 ])

let () =
  Alcotest.run "e2e-quantiles"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_percentile; prop_highest; prop_spread ] );
      ( "edges",
        [
          Alcotest.test_case "p50 needs 20 samples" `Quick test_p50_needs_twenty;
          Alcotest.test_case "exact integer ranks" `Quick test_exact_ranks;
          Alcotest.test_case "ties" `Quick test_ties;
          Alcotest.test_case "single rep" `Quick test_single_rep;
        ] );
    ]

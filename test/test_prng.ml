(* Tests for the SplitMix64 generator and derived streams: determinism,
   uniformity sanity, independence of derived streams, and exactness of
   the bounded-integer sampler. *)

let test_determinism () =
  let a = Prng.Stream.root 42 and b = Prng.Stream.root 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream, same draws" (Prng.Stream.bits a) (Prng.Stream.bits b)
  done

let test_distinct_seeds () =
  let a = Prng.Stream.root 1 and b = Prng.Stream.root 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Stream.bits a = Prng.Stream.bits b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_copy_replays () =
  let a = Prng.Stream.root 7 in
  ignore (Prng.Stream.bits a);
  let b = Prng.Stream.copy a in
  let draws_a = List.init 20 (fun _ -> Prng.Stream.bits a) in
  let draws_b = List.init 20 (fun _ -> Prng.Stream.bits b) in
  Alcotest.(check (list int)) "copy replays the future" draws_a draws_b

let test_derive_stable () =
  let root = Prng.Stream.root 3 in
  let c1 = Prng.Stream.derive root 5 and c2 = Prng.Stream.derive root 5 in
  Alcotest.(check int) "same index, same child" (Prng.Stream.bits c1) (Prng.Stream.bits c2);
  let c3 = Prng.Stream.derive root 6 in
  let d3 = Prng.Stream.bits c3 and d1 = Prng.Stream.bits c1 in
  Alcotest.(check bool) "different index, different child" true (d3 <> d1)

let test_derive_does_not_consume () =
  let a = Prng.Stream.root 11 and b = Prng.Stream.root 11 in
  ignore (Prng.Stream.derive a 0);
  Alcotest.(check int) "derive leaves parent untouched" (Prng.Stream.bits a)
    (Prng.Stream.bits b)

let test_derive_name () =
  let root = Prng.Stream.root 3 in
  let a = Prng.Stream.derive_name root "adversary" in
  let a' = Prng.Stream.derive_name root "adversary" in
  let b = Prng.Stream.derive_name root "processor" in
  Alcotest.(check int) "same name, same child" (Prng.Stream.bits a) (Prng.Stream.bits a');
  Alcotest.(check bool) "different names diverge" true
    (Prng.Stream.bits b <> Prng.Stream.bits a')

(* Pinned values: derive_name's name hash is a hand-rolled FNV-1a, so
   these draws must be identical on every platform and OCaml version.
   A change here means seed-reproducibility was silently broken. *)
let test_derive_name_pinned () =
  let draw name =
    Prng.Stream.bits (Prng.Stream.derive_name (Prng.Stream.root 3) name)
  in
  Alcotest.(check int) "pinned draw (adversary)" 76252243 (draw "adversary");
  Alcotest.(check int) "pinned draw (processor)" 688075149 (draw "processor");
  Alcotest.(check int) "pinned draw (empty name)" 97103796 (draw "")

let test_bool_balance () =
  let s = Prng.Stream.root 100 in
  let trues = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Prng.Stream.bool s then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int trials in
  Alcotest.(check bool) "bool is roughly fair" true (frac > 0.47 && frac < 0.53)

let test_int_below_range () =
  let s = Prng.Stream.root 5 in
  for bound = 1 to 50 do
    for _ = 1 to 50 do
      let v = Prng.Stream.int_below s bound in
      Alcotest.(check bool) "in range" true (v >= 0 && v < bound)
    done
  done

let test_int_below_uniform () =
  let s = Prng.Stream.root 9 in
  let counts = Array.make 7 0 in
  let trials = 70_000 in
  for _ = 1 to trials do
    let v = Prng.Stream.int_below s 7 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int trials in
      Alcotest.(check bool) "each value near 1/7" true (frac > 0.13 && frac < 0.155))
    counts

let test_int_below_large_bound () =
  let s = Prng.Stream.root 13 in
  let bound = 0x40000001 in
  for _ = 1 to 100 do
    let v = Prng.Stream.int_below s bound in
    Alcotest.(check bool) "large bound in range" true (v >= 0 && v < bound)
  done

let test_int_below_invalid () =
  let s = Prng.Stream.root 1 in
  Alcotest.check_raises "zero bound rejected"
    (Invalid_argument "Splitmix.int_below: bound must be positive") (fun () ->
      ignore (Prng.Stream.int_below s 0))

let test_float_range () =
  let s = Prng.Stream.root 21 in
  for _ = 1 to 1000 do
    let f = Prng.Stream.float s in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_float_mean () =
  let s = Prng.Stream.root 22 in
  let sum = ref 0.0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    sum := !sum +. Prng.Stream.float s
  done;
  let mean = !sum /. float_of_int trials in
  Alcotest.(check bool) "float mean near 0.5" true (mean > 0.48 && mean < 0.52)

let test_bernoulli_extremes () =
  let s = Prng.Stream.root 2 in
  Alcotest.(check bool) "p=0 never fires" false (Prng.Stream.bernoulli s 0.0);
  Alcotest.(check bool) "p=1 always fires" true (Prng.Stream.bernoulli s 1.0)

let test_bernoulli_rate () =
  let s = Prng.Stream.root 33 in
  let hits = ref 0 in
  let trials = 30_000 in
  for _ = 1 to trials do
    if Prng.Stream.bernoulli s 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "bernoulli(0.3) rate" true (frac > 0.28 && frac < 0.32)

let test_shuffle_permutation () =
  let s = Prng.Stream.root 4 in
  let a = Array.init 30 (fun i -> i) in
  Prng.Stream.shuffle s a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 30 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let s = Prng.Stream.root 8 in
  for _ = 1 to 50 do
    let sample = Prng.Stream.sample_without_replacement s 5 12 in
    Alcotest.(check int) "sample size" 5 (List.length sample);
    Alcotest.(check int) "sample distinct" 5 (List.length (List.sort_uniq compare sample));
    List.iter
      (fun v -> Alcotest.(check bool) "sample in range" true (v >= 0 && v < 12))
      sample
  done

let test_sample_full () =
  let s = Prng.Stream.root 8 in
  let sample = Prng.Stream.sample_without_replacement s 6 6 in
  Alcotest.(check (list int)) "k = n returns everything" [ 0; 1; 2; 3; 4; 5 ] sample

let test_sample_invalid () =
  let s = Prng.Stream.root 8 in
  Alcotest.check_raises "k > n rejected"
    (Invalid_argument "Stream.sample_without_replacement") (fun () ->
      ignore (Prng.Stream.sample_without_replacement s 7 6))

(* The fingerprint is written digit by digit, without [Printf]; it must
   be the bytes ["%Lx"] prints, short (leading-zero) states included.
   A root stream's state is its expanded seed. *)
let test_fingerprint_is_hex () =
  let short = ref 0 in
  for seed = 0 to 999 do
    let b = Buffer.create 16 in
    Prng.Stream.add_fingerprint b (Prng.Stream.root seed);
    let expected = Printf.sprintf "%Lx" (Prng.Splitmix.int64_seed_of_int seed) in
    if String.length expected < 16 then incr short;
    Alcotest.(check string) "hex state" expected (Buffer.contents b)
  done;
  Alcotest.(check bool) "some states have leading zero digits" true (!short > 0)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "distinct seeds diverge" `Quick test_distinct_seeds;
    Alcotest.test_case "copy replays" `Quick test_copy_replays;
    Alcotest.test_case "derive is stable" `Quick test_derive_stable;
    Alcotest.test_case "derive does not consume" `Quick test_derive_does_not_consume;
    Alcotest.test_case "derive by name" `Quick test_derive_name;
    Alcotest.test_case "derive by name, pinned values" `Quick
      test_derive_name_pinned;
    Alcotest.test_case "bool balance" `Quick test_bool_balance;
    Alcotest.test_case "int_below range" `Quick test_int_below_range;
    Alcotest.test_case "int_below uniform" `Quick test_int_below_uniform;
    Alcotest.test_case "int_below large bound" `Quick test_int_below_large_bound;
    Alcotest.test_case "int_below invalid" `Quick test_int_below_invalid;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "sample full" `Quick test_sample_full;
    Alcotest.test_case "sample invalid" `Quick test_sample_invalid;
    Alcotest.test_case "fingerprint is %Lx hex" `Quick test_fingerprint_is_hex;
  ]

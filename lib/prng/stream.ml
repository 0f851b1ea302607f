type t = Splitmix.t

let root seed = Splitmix.create (Splitmix.int64_seed_of_int seed)

(* Derivation is by value, not by consuming the parent: we mix the
   parent's current state with the index so that deriving index [i] is a
   pure function of (parent state, i). *)
let derive t i =
  let snapshot = Splitmix.copy t in
  let base = Splitmix.next_int64 snapshot in
  Splitmix.create
    (Int64.add
       (Int64.mul base 0x2545F4914F6CDD1DL)
       (Splitmix.int64_seed_of_int i))

(* FNV-1a over the name bytes: stable across OCaml versions and word
   sizes, unlike Hashtbl.hash, so name-derived streams reproduce
   identically on every toolchain. *)
let fnv1a64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let derive_name t name =
  let snapshot = Splitmix.copy t in
  let base = Splitmix.next_int64 snapshot in
  Splitmix.create
    (Int64.add (Int64.mul base 0x2545F4914F6CDD1DL) (fnv1a64 name))

let bool = Splitmix.bool
let int_below = Splitmix.int_below
let float = Splitmix.float
let bits = Splitmix.bits
let copy = Splitmix.copy

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else Splitmix.float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Splitmix.int_below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Stream.choose: empty array";
  a.(Splitmix.int_below t (Array.length a))

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Stream.sample_without_replacement";
  (* Partial Fisher–Yates over the index array. *)
  let idx = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + Splitmix.int_below t (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  List.sort compare (Array.to_list (Array.sub idx 0 k))

let fingerprint t = Printf.sprintf "%Lx" (Splitmix.raw_state t)

(* Symbolic threshold arithmetic over the two protocol parameters n
   (system size) and t (fault bound).

   Threshold expressions extracted from the protocol sources are small
   integer terms built from +, -, constant scaling, exact floor
   division and max/min.  The quorum obligations all have the shape

     forall n t.  (every region constraint >= 0)  =>  goal >= 0

   over the integers, and we decide that shape *exactly* — floor
   semantics included — rather than approximating over the rationals.
   Exactness matters at the region boundary: e.g. Bracha's echo quorum
   ((n + t) / 2) + 1 fits inside n - t at n = 3t + 1 only because the
   division floors.

   Decision procedure (negate: search an integer point satisfying
   region @ [goal <= -1]):
     1. eliminate Max/Min by case-splitting the system (each split adds
        the branch hypothesis and replaces the node);
     2. eliminate floor division by a residue split: substitute
        n = L*u + i, t = L*v + j for every (i, j) in [0, L)^2 with L
        the lcm of all divisors; every division then divides its
        numerator's coefficients exactly, so each constraint becomes
        affine in (u, v) with integer coefficients;
     3. decide each two-variable integer system by pairwise bound
        elimination: a v exists iff every ceil lower bound is <= every
        floor upper bound, and those pair conditions are linearized by
        a second residue split on u.

   Everything is exact; the only escape hatch is [Undecidable], raised
   for nested divisions whose composed divisor falls outside the
   residue lattice (none occur in the tree today). *)

type var = N | T

type t =
  | Const of int
  | Var of var
  | Add of t * t
  | Sub of t * t
  | Scale of int * t
  | Div of t * int  (* floor division, divisor > 0 *)
  | Max of t * t
  | Min of t * t

exception Undecidable of string

(* ------------------------------------------------------------------ *)
(* Construction helpers and evaluation.                                *)

let n_ = Var N
let t_ = Var T
let int_ k = Const k
let add a b = Add (a, b)
let sub a b = Sub (a, b)
let scale k a = Scale (k, a)

let div a d =
  if d <= 0 then invalid_arg "Symexpr.div: divisor must be positive";
  Div (a, d)

let max_ a b = Max (a, b)
let min_ a b = Min (a, b)

(* a >= b, a > b, ... as "expr >= 0" constraints. *)
let ge a b = Sub (a, b)
let gt a b = Sub (Sub (a, b), Const 1)
let le a b = ge b a
let lt a b = gt b a

(* Floor division and its ceiling twin, total over negative numerators
   (OCaml's (/) truncates toward zero). *)
let fdiv a b =
  if b <= 0 then invalid_arg "Symexpr.fdiv: divisor must be positive";
  if a >= 0 then a / b else -((-a + b - 1) / b)

let cdiv a b = -fdiv (-a) b

let rec eval ~n ~t = function
  | Const c -> c
  | Var N -> n
  | Var T -> t
  | Add (a, b) -> eval ~n ~t a + eval ~n ~t b
  | Sub (a, b) -> eval ~n ~t a - eval ~n ~t b
  | Scale (k, a) -> k * eval ~n ~t a
  | Div (a, d) -> fdiv (eval ~n ~t a) d
  | Max (a, b) -> Stdlib.max (eval ~n ~t a) (eval ~n ~t b)
  | Min (a, b) -> Stdlib.min (eval ~n ~t a) (eval ~n ~t b)

(* ------------------------------------------------------------------ *)
(* Pretty-printing: affine terms render as "2*n - 3*t + 1"; anything
   with division or max/min falls back to structural syntax.           *)

let rec as_affine = function
  | Const c -> Some (0, 0, c)
  | Var N -> Some (1, 0, 0)
  | Var T -> Some (0, 1, 0)
  | Add (x, y) -> (
      match (as_affine x, as_affine y) with
      | Some (a, b, c), Some (a', b', c') -> Some (a + a', b + b', c + c')
      | _ -> None)
  | Sub (x, y) -> (
      match (as_affine x, as_affine y) with
      | Some (a, b, c), Some (a', b', c') -> Some (a - a', b - b', c - c')
      | _ -> None)
  | Scale (k, x) -> (
      match as_affine x with
      | Some (a, b, c) -> Some (k * a, k * b, k * c)
      | None -> None)
  | Div _ | Max _ | Min _ -> None

let rec to_string e =
  match as_affine e with
  | Some (a, b, c) ->
      let term coef name acc =
        if coef = 0 then acc
        else
          let mag = abs coef in
          let core = if mag = 1 then name else Printf.sprintf "%d*%s" mag name in
          if String.equal acc "" then (if coef < 0 then "-" ^ core else core) ^ acc
          else acc ^ (if coef < 0 then " - " else " + ") ^ core
      in
      let s = term a "n" "" in
      let s = term b "t" s in
      if c = 0 && not (String.equal s "") then s
      else if String.equal s "" then string_of_int c
      else if c < 0 then Printf.sprintf "%s - %d" s (-c)
      else Printf.sprintf "%s + %d" s c
  | None -> (
      match e with
      | Div (a, d) -> Printf.sprintf "(%s)/%d" (to_string a) d
      | Max (a, b) -> Printf.sprintf "max(%s, %s)" (to_string a) (to_string b)
      | Min (a, b) -> Printf.sprintf "min(%s, %s)" (to_string a) (to_string b)
      | Add (a, b) -> Printf.sprintf "%s + %s" (to_string a) (to_string b)
      | Sub (a, b) -> Printf.sprintf "%s - (%s)" (to_string a) (to_string b)
      | Scale (k, a) -> Printf.sprintf "%d*(%s)" k (to_string a)
      | Const _ | Var _ -> assert false (* affine *))

let pp ppf e = Format.pp_print_string ppf (to_string e)

(* ------------------------------------------------------------------ *)
(* Step 1: Max/Min elimination by case splitting.                      *)

let rec find_minmax e =
  match e with
  | Const _ | Var _ -> None
  | Add (a, b) | Sub (a, b) -> (
      match find_minmax a with Some m -> Some m | None -> find_minmax b)
  | Scale (_, a) | Div (a, _) -> find_minmax a
  | Max _ | Min _ -> Some e

(* Replace every occurrence physically equal to [node]. *)
let rec replace ~node ~by e =
  if e == node then by
  else
    match e with
    | Const _ | Var _ -> e
    | Add (a, b) -> Add (replace ~node ~by a, replace ~node ~by b)
    | Sub (a, b) -> Sub (replace ~node ~by a, replace ~node ~by b)
    | Scale (k, a) -> Scale (k, replace ~node ~by a)
    | Div (a, d) -> Div (replace ~node ~by a, d)
    | Max (a, b) -> Max (replace ~node ~by a, replace ~node ~by b)
    | Min (a, b) -> Min (replace ~node ~by a, replace ~node ~by b)

let expand_minmax sys =
  let budget = ref 64 in
  let rec go sys =
    let rec find = function
      | [] -> None
      | c :: rest -> (
          match find_minmax c with Some m -> Some m | None -> find rest)
    in
    match find sys with
    | None -> [ sys ]
    | Some node ->
        decr budget;
        if !budget <= 0 then
          raise (Undecidable "too many max/min case splits");
        let a, b, hyp_left, hyp_right =
          match node with
          (* max = a under a >= b; = b under b >= a + 1 *)
          | Max (a, b) -> (a, b, ge a b, gt b a)
          (* min = a under b >= a; = b under a >= b + 1 *)
          | Min (a, b) -> (a, b, ge b a, gt a b)
          | _ -> assert false
        in
        let subst by hyp =
          hyp :: List.map (fun c -> replace ~node ~by c) sys
        in
        go (subst a hyp_left) @ go (subst b hyp_right)
  in
  go sys

(* ------------------------------------------------------------------ *)
(* Step 2: residue split on the divisors' lcm; constraints -> affine.  *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)
let lcm a b = if a = 0 || b = 0 then 0 else abs (a * b) / gcd a b

let rec collect_divisors e acc =
  match e with
  | Const _ | Var _ -> acc
  | Add (a, b) | Sub (a, b) | Max (a, b) | Min (a, b) ->
      collect_divisors a (collect_divisors b acc)
  | Scale (_, a) -> collect_divisors a acc
  | Div (a, d) -> collect_divisors a (d :: acc)

(* e as cu*u + cv*v + k under n = l*u + i, t = l*v + j. *)
let rec affine_in_class ~l ~i ~j = function
  | Const c -> (0, 0, c)
  | Var N -> (l, 0, i)
  | Var T -> (0, l, j)
  | Add (a, b) ->
      let au, av, ak = affine_in_class ~l ~i ~j a in
      let bu, bv, bk = affine_in_class ~l ~i ~j b in
      (au + bu, av + bv, ak + bk)
  | Sub (a, b) ->
      let au, av, ak = affine_in_class ~l ~i ~j a in
      let bu, bv, bk = affine_in_class ~l ~i ~j b in
      (au - bu, av - bv, ak - bk)
  | Scale (k, a) ->
      let au, av, ak = affine_in_class ~l ~i ~j a in
      (k * au, k * av, k * ak)
  | Div (a, d) ->
      let au, av, ak = affine_in_class ~l ~i ~j a in
      if au mod d = 0 && av mod d = 0 then (au / d, av / d, fdiv ak d)
      else
        raise
          (Undecidable
             "nested floor division outside the residue lattice")
  | Max _ | Min _ -> assert false (* eliminated in step 1 *)

(* ------------------------------------------------------------------ *)
(* Step 3: integer feasibility of {a*u + b*v + c >= 0}.                *)

(* One-variable system {p*w + q >= 0}: return a satisfying w. *)
let one_var_feasible constraints =
  let lo = ref None and hi = ref None in
  let ok = ref true in
  List.iter
    (fun (p, q) ->
      if p > 0 then
        let b = cdiv (-q) p in
        lo := Some (match !lo with None -> b | Some l -> Stdlib.max l b)
      else if p < 0 then
        let b = fdiv q (-p) in
        hi := Some (match !hi with None -> b | Some h -> Stdlib.min h b)
      else if q < 0 then ok := false)
    constraints;
  if not !ok then None
  else
    match (!lo, !hi) with
    | Some l, Some h -> if l <= h then Some l else None
    | Some l, None -> Some l
    | None, Some h -> Some h
    | None, None -> Some 0

let two_var_feasible constraints =
  let lowers = List.filter (fun (_, b, _) -> b > 0) constraints in
  let uppers =
    List.filter_map
      (fun (a, b, c) -> if b < 0 then Some (a, -b, c) else None)
      constraints
  in
  let pures =
    List.filter_map
      (fun (a, b, c) -> if b = 0 then Some (a, c) else None)
      constraints
  in
  (* Residue modulus for u: lcm of all v-bound denominators. *)
  let m =
    List.fold_left
      (fun acc (_, b, _) -> if b = 0 then acc else lcm acc (abs b))
      1 constraints
  in
  if m <= 0 || m > 100_000 then
    raise (Undecidable "residue modulus for variable elimination too large");
  (* For u = m*w + r, each pair (lower p, upper q) linearizes exactly:
     ceil((-(ap*u + cp))/bp) <= floor((aq*u + cq)/bq). *)
  let rec try_residue r =
    if r >= m then None
    else
      let lin = ref [] in
      List.iter
        (fun (a, c) -> lin := (a * m, (a * r) + c) :: !lin)
        pures;
      List.iter
        (fun (ap, bp, cp) ->
          List.iter
            (fun (aq, bq, cq) ->
              (* lhs = lc*w + lk, rhs = rc*w + rk; need rhs - lhs >= 0. *)
              let lc = -ap * m / bp
              and lk = cdiv ((-ap * r) - cp) bp in
              let rc = aq * m / bq
              and rk = fdiv ((aq * r) + cq) bq in
              lin := (rc - lc, rk - lk) :: !lin)
            uppers)
        lowers;
      match one_var_feasible !lin with
      | None -> try_residue (r + 1)
      | Some w ->
          let u = (m * w) + r in
          (* Reconstruct v inside [max lowers, min uppers]. *)
          let vlo =
            List.fold_left
              (fun acc (a, b, c) ->
                let bound = cdiv (-((a * u) + c)) b in
                Some (match acc with None -> bound | Some l -> Stdlib.max l bound))
              None lowers
          in
          let vhi =
            List.fold_left
              (fun acc (a, b, c) ->
                let bound = fdiv ((a * u) + c) b in
                Some (match acc with None -> bound | Some h -> Stdlib.min h bound))
              None uppers
          in
          let v =
            match (vlo, vhi) with
            | Some l, _ -> l
            | None, Some h -> h
            | None, None -> 0
          in
          Some (u, v)
  in
  try_residue 0

(* ------------------------------------------------------------------ *)
(* Witness search: a small grid first (small witnesses make readable
   messages and settle the common mutant cases instantly), then the
   exact symbolic procedure.                                           *)

let grid_witness sys =
  let sat n t = List.for_all (fun c -> eval ~n ~t c >= 0) sys in
  let found = ref None in
  (try
     for n = -4 to 60 do
       for t = -4 to 60 do
         if sat n t then begin
           found := Some (n, t);
           raise Exit
         end
       done
     done
   with Exit -> ());
  !found

let solve sys =
  match grid_witness sys with
  | Some w -> Some w
  | None ->
      let systems = expand_minmax sys in
      let solve_system sys =
        let l = List.fold_left (fun acc c -> collect_divisors c acc) [] sys
                |> List.fold_left lcm 1
        in
        if l > 360 then
          raise (Undecidable "divisor lcm too large for the residue split");
        let rec classes i j =
          if i >= l then None
          else if j >= l then classes (i + 1) 0
          else
            let constraints =
              List.map (affine_in_class ~l ~i ~j) sys
            in
            match two_var_feasible constraints with
            | Some (u, v) -> Some ((l * u) + i, (l * v) + j)
            | None -> classes i (j + 1)
        in
        classes 0 0
      in
      List.fold_left
        (fun acc sys -> match acc with Some _ -> acc | None -> solve_system sys)
        None systems

let feasible sys = Option.is_some (solve sys)

(* ------------------------------------------------------------------ *)
(* The obligation shape.                                               *)

type verdict = Holds | Fails of { n : int; t : int } | Unknown of string

let implies ~region goal =
  (* forall points in the region, goal >= 0  <=>  no point satisfies
     region and goal <= -1  (i.e. -goal - 1 >= 0). *)
  match solve (Sub (Const (-1), goal) :: region) with
  | None -> Holds
  | Some (n, t) -> Fails { n; t }
  | exception Undecidable why -> Unknown why

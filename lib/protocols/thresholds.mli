(** The threshold calculus of Theorem 4.

    The paper's variant algorithm is parameterized by three thresholds
    [T1 >= T2 >= T3].  Theorem 4 proves measure-one correctness and
    termination against the strongly adaptive adversary when

    - [n - 2t >= T1 >= T2 >= T3 + t]  (progress through windows), and
    - [2 * T3 > n]                    (no conflicting deterministic sets),

    which also forces [2 * T2 > n] (no conflicting decisions) and
    [2 * T3 > T1] (step 3 of the algorithm is well defined).  These are
    simultaneously satisfiable exactly when [t < n / 6]. *)

type t = {
  t1 : int;  (** Messages to wait for each round. *)
  t2 : int;  (** Matching votes required to decide. *)
  t3 : int;  (** Matching votes required to adopt deterministically. *)
}

val quorums : Quorums.t
(** The [lewko] family's declaration: [t1 = t2 = n - 2t], [t3 = n - 3t],
    under the resilience bound [t <= (n - 1) / 6].  {!default},
    {!feasible} and {!max_fault_bound} all read it. *)

val default : n:int -> t:int -> t
(** Theorem 4's instantiation: [T1 = T2 = n - 2t], [T3 = n - 3t].
    Raises [Invalid_argument] when no valid thresholds exist
    (i.e. when [t >= n / 6] or parameters are out of range). *)

val validate : n:int -> t:int -> t -> (unit, string) result
(** Check the full constraint system above. *)

val feasible : n:int -> t:int -> bool
(** Whether any valid threshold triple exists for these parameters. *)

val max_fault_bound : n:int -> int
(** The largest [t] for which thresholds exist: the biggest [t] with
    [6 * t < n] (and [t >= 0]). *)

val relaxed : n:int -> t:int -> t
(** The loosest valid triple: [T3 = n/2 + 1] (a bare majority) and
    [T2 = T3 + t], which the paper notes improves running time when [t]
    is small (decisions need a weaker super-majority).  Raises like
    {!default} when no valid triple exists. *)

val pp : Format.formatter -> t -> unit

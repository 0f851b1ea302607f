(** Least-squares fits used to report scaling exponents.

    E2/E3 fit [log2 E[windows]] against [n] to exhibit the exponential
    running time; E9 fits rounds against [log n] to exhibit polylog
    behaviour of the committee algorithm. *)

type fit = {
  slope : float;
  intercept : float;
  r_squared : float;  (** Coefficient of determination. *)
  n_points : int;
}

val linear : (float * float) list -> fit
(** Ordinary least squares on [(x, y)] pairs; requires at least two
    points with distinct [x]. *)

val log2_linear : (float * float) list -> fit
(** Fit [log2 y = slope * x + intercept]; drops non-positive [y].
    For exponential data [y ~ 2^(a n)], [slope] recovers [a]. *)

val loglog : (float * float) list -> fit
(** Fit [log2 y = slope * log2 x + intercept]; drops non-positive
    coordinates.  For polynomial data the slope recovers the degree. *)

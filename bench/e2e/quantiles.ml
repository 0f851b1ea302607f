(* Order statistics for the end-to-end benchmark.

   Percentiles are nearest-rank over integer percents: the [pct]-th
   percentile of [n] sorted samples is the sample at 1-based rank
   ceil(pct * n / 100), computed in integers so that, say, p90 of 100
   samples is exactly rank 90 and never drifts to 91 through float
   rounding.  Every reported percentile is therefore a real sample.

   A percentile "has k samples beyond it" when k samples rank above it.
   The benchmark reports a tail only where at least [min_beyond] = 10
   samples lie beyond, so a p50 needs at least 20 samples and a p99 at
   least 1000. *)

let min_beyond = 10

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let rank ~n pct =
  if n < 1 then invalid_arg "Quantiles.rank: no samples";
  if pct < 0 || pct > 100 then invalid_arg "Quantiles.rank: percent out of range";
  max 1 (((pct * n) + 99) / 100)

(* [sorted_samples] must be sorted ascending and non-empty. *)
let percentile sorted_samples pct =
  sorted_samples.(rank ~n:(Array.length sorted_samples) pct - 1)

let beyond ~n pct = n - rank ~n pct
let supported ~n pct = n >= 1 && beyond ~n pct >= min_beyond

(* The highest of [candidates] (percents) with at least [min_beyond]
   samples beyond it, if any. *)
let highest_supported ~n candidates =
  List.fold_left
    (fun best pct ->
      if not (supported ~n pct) then best
      else match best with Some b when b >= pct -> best | _ -> Some pct)
    None candidates

let median sorted_samples = percentile sorted_samples 50

type spread = { p25 : float; p50 : float; p75 : float }

let spread sorted_samples =
  {
    p25 = percentile sorted_samples 25;
    p50 = median sorted_samples;
    p75 = percentile sorted_samples 75;
  }

(* Interquartile range as a share of the median (0 when the median is
   0, which only an all-zero sample produces). *)
let relative_iqr s = if Float.equal s.p50 0.0 then 0.0 else (s.p75 -. s.p25) /. s.p50

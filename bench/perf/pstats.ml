(* Order statistics and means for the benchmark's reports. *)

(* The [pct]-th percentile, interpolating linearly between the two closest
   ranks (position (n-1)·pct/100 in the sorted samples).  Job times cluster
   by configuration, and a percentile that falls between two clusters would
   otherwise jump by the whole gap when one job crosses it. *)
let percentile ~pct samples =
  match samples with
  | [] -> invalid_arg "Pstats.percentile: no samples"
  | _ :: _ ->
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    let n = Array.length a in
    let h = float_of_int ((n - 1) * pct) /. 100.0 in
    let i = int_of_float h in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median samples = percentile ~pct:50 samples

(* The 1-based nearest rank of the [pct]-th percentile among [n] samples:
   the smallest rank with at least [pct]% of the samples at or below it.
   Integer arithmetic, so [rank ~pct:90 100] is exactly 90. *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

(* Samples above the [pct]-th percentile's rank. *)
let beyond ~pct n = n - rank ~pct n

(* A percentile describes a tail only when at least ten samples lie beyond
   it; with fewer it is one or two particular jobs' times. *)
let supported ~pct n = beyond ~pct n >= 10

(* The geometric mean of positive ratios.  The mean of no ratios is 1, the
   neutral ratio: a workload that runs no squashed code shows no slowdown. *)
let geomean = function [] -> 1.0 | ratios -> Report.gmean ratios

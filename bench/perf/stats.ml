(* Order statistics and the regression rule. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* (q1, median, q3) exactly as Python's statistics.quantiles(xs, n=4)
   computes them (the default "exclusive" method), so numbers printed
   here match a spreadsheet of the same samples.  One sample is its own
   quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = i * m - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* The highest whole percentile that still has at least ten samples
   beyond it, with its nearest-rank value; none below 11 samples, where
   any tail figure would rest on fewer than ten. *)
let tail xs =
  let n = List.length xs in
  if n < 11 then None
  else
    let p = 100 * (n - 10) / n in
    let rank = ((p * n) + 99) / 100 in
    Some (p, (sorted xs).(rank - 1))

type verdict = Ok | Regressed | Unresolved

let verdict_name = function
  | Ok -> "ok"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* [b] regresses on [a] when its median exceeds a's by more than the
   bound, [a]'s median x rel + abs.  When either side's quartile spread
   is wider than that bound the comparison cannot tell, unless every b
   sample beats every a sample. *)
let verdict ~rel ~abs a b =
  let q1a, ma, q3a = quartiles a and q1b, mb, q3b = quartiles b in
  let bound = (ma *. rel) +. abs in
  let all_better =
    List.fold_left Float.max neg_infinity b < List.fold_left Float.min infinity a
  in
  if Float.max (q3a -. q1a) (q3b -. q1b) > bound && not all_better then Unresolved
  else if mb > ma +. bound then Regressed
  else Ok

(* Sample summaries and verdicts of the benchmark: the percentile rule of
   the report, quartiles, spreads and the bound checks of --compare. *)

(* A percentile that reads 0 on an empty sample: what the report gives a
   timing or layer that a rep did not exercise. *)
let percentile_or_zero p = function [] -> 0.0 | xs -> Stats.percentile p xs

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] gives
   them (its default "exclusive" method), so spreads reported here are
   the ones an outside check computes from the same values. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Sample.quartiles: empty sample"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. abs_float q2

(* The report's tail: the highest of these percentiles that still has at
   least ten samples beyond it; the median when there are fewer than 20. *)
let tail_percentile n =
  (* in tenths of a percent, so the count beyond is exact *)
  List.find_opt (fun t -> n * (1000 - t) >= 10_000) [ 999; 990; 950; 900; 750 ]
  |> Option.fold ~none:50.0 ~some:(fun t -> float_of_int t /. 10.0)

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

(* How much worse [change] is than [base], as a share of [base]; negative
   when it is better. *)
let reads_better better a b = match better with Lower -> a < b | Higher -> a > b

let worse_share better ~base change =
  if base = 0.0 then
    if change = base then 0.0
    else if reads_better better base change then infinity
    else neg_infinity
  else
    match better with
    | Lower -> (change -. base) /. abs_float base
    | Higher -> (base -. change) /. abs_float base

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* Verdict on one (workload, metric) pair from per-run values, paired in
   recorded order (run i of each side forms pair i):

   - better: at least ten pairs, the change wins at least nine tenths of
     them (ties count for neither) and the medians differ by more than
     the parent's interquartile distance;
   - worse: the change's median is worse than the parent's by more than
     [bound] (a share of the parent's median);
   - unresolved: the parent's own spread is wider than [bound], unless
     every run of the change reads better than every run of the parent;
   - unchanged: otherwise. *)
let verdict better ~bound ~parent ~change =
  let pm = Stats.median parent and cm = Stats.median change in
  let q1, _, q3 = quartiles parent in
  let rec pairs a b =
    match (a, b) with x :: xs, y :: ys -> (x, y) :: pairs xs ys | _ -> []
  in
  let ps = pairs parent change in
  let n = List.length ps in
  let wins = List.length (List.filter (fun (p, c) -> reads_better better c p) ps) in
  if n >= 10 && wins * 10 >= 9 * n && reads_better better cm pm
     && abs_float (cm -. pm) > q3 -. q1
  then Better
  else if worse_share better ~base:pm cm > bound then Worse
  else if
    spread parent > bound
    && not (List.for_all (fun c -> List.for_all (fun p -> reads_better better c p) parent) change)
  then Unresolved
  else Unchanged

(* Percentile rule for reported timings: the median, and the highest
   percentile (capped at the 99th, never below the median) that still has at
   least [min_beyond] samples above it. With n samples that is
   p = 100 - ceil (1000 / n): p99 needs 1000 samples, 60 samples give p83. *)

let min_beyond = 10

let tail_percentile n =
  if n <= 0 then 50
  else
    let needed = (100 * min_beyond + n - 1) / n in
    max 50 (min 99 (100 - needed))

(* Nearest-rank percentile of an already sorted array: the value at rank
   ceil (p/100 * n), so at least n - rank samples lie beyond it. *)
let rank_index n p = max 0 (min (n - 1) ((((p * n) + 99) / 100) - 1))

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.nearest_rank: no samples";
  sorted.(rank_index n p)

(* The nearest-rank value, except where the rank falls inside a run of tied
   samples — virtual time is discrete, so simulated latencies tie a lot.
   There the value is interpolated across that run's class, whose
   boundaries are the midpoints to the neighbouring distinct values: the
   grouped-data percentile. It stays strictly between the neighbours, so
   the samples beyond it are the same as beyond the nearest-rank value. *)
let percentile sorted p =
  let v = nearest_rank sorted p in
  let n = Array.length sorted in
  let lo = ref (rank_index n p) in
  let hi = ref !lo in
  while !lo > 0 && sorted.(!lo - 1) = v do decr lo done;
  while !hi < n - 1 && sorted.(!hi + 1) = v do incr hi done;
  if !lo = !hi then v
  else
    let below = if !lo > 0 then (sorted.(!lo - 1) +. v) /. 2. else v in
    let above = if !hi < n - 1 then (v +. sorted.(!hi + 1)) /. 2. else v in
    let rank = float_of_int (p * n) /. 100. in
    let share = (rank -. float_of_int !lo) /. float_of_int (!hi - !lo + 1) in
    below +. (Float.min 1. (Float.max 0. share) *. (above -. below))

let sorted_copy samples =
  let a = Array.copy samples in
  Array.sort compare a;
  a

type summary = { n : int; p50 : float; tail_p : int; tail : float }

let summarize samples =
  let sorted = sorted_copy samples in
  let n = Array.length sorted in
  let tail_p = tail_percentile n in
  { n; p50 = percentile sorted 50; tail_p; tail = percentile sorted tail_p }

(* Plain median of a float list, for repeated set-up timings. *)
let median = function
  | [] -> invalid_arg "Pct.median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

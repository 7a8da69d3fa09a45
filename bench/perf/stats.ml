(* Order statistics over a run's latency samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let r = p /. 100.0 *. float_of_int (n - 1) in
  let i = int_of_float r in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 50.0
let minimum xs = List.fold_left Float.min infinity xs

(* Python's [statistics.quantiles xs ~n:4] (its default "exclusive"
   method), so the quartiles printed here are the ones a Python reader of
   the same values gets. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = (n + 1) * i in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = float_of_int (m - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* The highest of p50/p90/p99/p99.9 that has at least ten samples beyond
   it; [None] below twenty samples. *)
let tail xs =
  let n = float_of_int (List.length xs) in
  List.fold_left
    (fun acc p -> if n *. (100.0 -. p) /. 100.0 >= 10.0 then Some (p, percentile xs p) else acc)
    None [ 50.0; 90.0; 99.0; 99.9 ]

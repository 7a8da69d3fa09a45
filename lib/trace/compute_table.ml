module Counters = Siesta_perf.Counters

type cluster = { mutable centroid : Counters.t; mutable members : int }
type t = { threshold : float; mutable clusters : cluster array; mutable used : int }

let create ~threshold = { threshold; clusters = [||]; used = 0 }

let restore pairs =
  {
    threshold = 0.05;
    clusters = Array.map (fun (centroid, members) -> { centroid; members }) pairs;
    used = Array.length pairs;
  }

(* [Stdlib.max] at type float: no polymorphic compare, no boxing. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

(* One metric's relative distance, and whether it enters the mean (not
   when zero in both readings). *)
let[@inline] term av bv =
  let scale = fmax (abs_float av) (abs_float bv) in
  if scale > 0.0 then abs_float (av -. bv) /. scale else 0.0

let[@inline] counted av bv = if fmax (abs_float av) (abs_float bv) > 0.0 then 1 else 0

(* Mean relative distance over the six metrics, summed in metric order,
   ignoring metrics that are zero in both readings. *)
let distance (a : Counters.t) (b : Counters.t) =
  let n =
    counted a.ins b.ins + counted a.cyc b.cyc + counted a.lst b.lst + counted a.l1_dcm b.l1_dcm
    + counted a.br_cn b.br_cn + counted a.msp b.msp
  in
  if n = 0 then 0.0
  else
    (term a.ins b.ins +. term a.cyc b.cyc +. term a.lst b.lst +. term a.l1_dcm b.l1_dcm
    +. term a.br_cn b.br_cn +. term a.msp b.msp)
    /. float_of_int n

let grow t =
  let cap = max 16 (2 * Array.length t.clusters) in
  let fresh = Array.init cap (fun _ -> { centroid = Counters.zero; members = 0 }) in
  Array.blit t.clusters 0 fresh 0 t.used;
  t.clusters <- fresh

let rec find t reading i =
  if i >= t.used then -1
  else if distance t.clusters.(i).centroid reading <= t.threshold then i
  else find t reading (i + 1)

(* Fold [v] into a running mean [old] of [m] readings. *)
let[@inline] mix m old v = ((old *. m) +. v) /. (m +. 1.0)

let classify t (r : Counters.t) =
  match find t r 0 with
  | -1 ->
      if t.used = Array.length t.clusters then grow t;
      t.clusters.(t.used) <- { centroid = r; members = 1 };
      t.used <- t.used + 1;
      t.used - 1
  | i ->
      let c = t.clusters.(i) in
      let m = float_of_int c.members and o = c.centroid in
      c.centroid <-
        {
          ins = mix m o.ins r.ins;
          cyc = mix m o.cyc r.cyc;
          lst = mix m o.lst r.lst;
          l1_dcm = mix m o.l1_dcm r.l1_dcm;
          br_cn = mix m o.br_cn r.br_cn;
          msp = mix m o.msp r.msp;
        };
      c.members <- c.members + 1;
      i

let check t id =
  if id < 0 || id >= t.used then invalid_arg (Printf.sprintf "Compute_table: unknown id %d" id)

let centroid t id =
  check t id;
  t.clusters.(id).centroid

let members t id =
  check t id;
  t.clusters.(id).members

let cluster_count t = t.used

let total_assigned t =
  let acc = ref 0 in
  for i = 0 to t.used - 1 do
    acc := !acc + t.clusters.(i).members
  done;
  !acc

let serialized_bytes t = t.used * ((6 * 8) + 4)

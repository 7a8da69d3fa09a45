open Siesta_util

type t = {
  cpu : Siesta_platform.Cpu.t;
  noise : float;
  rng : Rng.t;
  mutable interval : Counters.t;
  mutable total : Counters.t;
  mutable elapsed_s : float;
}

let create ~cpu ~noise ~rng =
  { cpu; noise; rng; interval = Counters.zero; total = Counters.zero; elapsed_s = 0.0 }
let cpu t = t.cpu

let accumulate t work =
  let c = Counters.of_work t.cpu work in
  t.interval <- Counters.add t.interval c;
  t.total <- Counters.add t.total c;
  t.elapsed_s <- t.elapsed_s +. Siesta_platform.Cpu.seconds_of_cycles t.cpu c.Counters.cyc

let[@inline] noisy t v =
  if t.noise = 0.0 || v = 0.0 then v
  else
    let x = v *. (1.0 +. Rng.gaussian t.rng ~mu:0.0 ~sigma:t.noise) in
    if 0.0 >= x then 0.0 else x

(* Sequential lets draw the noise in metric order (record-literal fields
   have no specified evaluation order). *)
let read_delta t =
  let c = t.interval in
  t.interval <- Counters.zero;
  let ins = noisy t c.ins in
  let cyc = noisy t c.cyc in
  let lst = noisy t c.lst in
  let l1_dcm = noisy t c.l1_dcm in
  let br_cn = noisy t c.br_cn in
  let msp = noisy t c.msp in
  { Counters.ins; cyc; lst; l1_dcm; br_cn; msp }

let elapsed_seconds t = t.elapsed_s
let totals t = t.total

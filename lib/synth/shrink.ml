module Linreg = Siesta_numerics.Linreg
module Counters = Siesta_perf.Counters
module Datatype = Siesta_mpi.Datatype

type t = { factor : float; reg : Linreg.t }

let identity = { factor = 1.0; reg = { Linreg.slope = 0.0; intercept = 0.0 } }

let fit ~platform ~impl ~factor =
  if factor < 1.0 then invalid_arg "Shrink.fit: factor must be >= 1";
  let samples = ref [] in
  let volumes = [ 0; 64; 256; 1024; 4096; 16384; 65536; 262144; 1048576; 4194304 ] in
  List.iter
    (fun bytes ->
      List.iter
        (fun same_node ->
          let s = Siesta_mpi.Engine.estimate_p2p_seconds ~platform ~impl ~same_node ~bytes in
          samples := (float_of_int bytes, s) :: !samples)
        [ true; false ])
    volumes;
  let xs = Array.of_list (List.map fst !samples) in
  let ys = Array.of_list (List.map snd !samples) in
  { factor; reg = Linreg.fit ~xs ~ys }

let factor t = t.factor
let of_parts ~factor ~regression = { factor; reg = regression }

let shrink_count t ~dt count =
  if t.factor = 1.0 then count
  else begin
    let v = float_of_int (Datatype.bytes dt ~count) in
    let time = Linreg.predict t.reg v in
    let target = time /. t.factor in
    let v' =
      if t.reg.Linreg.slope <= 0.0 then v /. t.factor
      else max 0.0 ((target -. t.reg.Linreg.intercept) /. t.reg.Linreg.slope)
    in
    let count' = int_of_float (Float.round (v' /. float_of_int (Datatype.size dt))) in
    max 0 (min count count')
  end

let event t (ev : Siesta_trace.Event.t) =
  if t.factor = 1.0 then ev
  else
    match ev with
    | Isend _ | Irecv _ | Ibcast _ | Iallreduce _ -> ev
    | _ -> Siesta_trace.Event.map_counts (fun dt count -> shrink_count t ~dt count) ev

let shrink_counters t c = if t.factor = 1.0 then c else Counters.scale (1.0 /. t.factor) c

let regression t = t.reg

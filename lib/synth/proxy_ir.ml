module Merged = Siesta_merge.Merged
module Compute_table = Siesta_trace.Compute_table
module Event = Siesta_trace.Event
module Replay = Siesta_trace.Replay
module Engine = Siesta_mpi.Engine
module Block = Siesta_blocks.Block

type t = {
  merged : Merged.t;
  combos : float array array;
  combo_errors : float array;
  shrink : Shrink.t;
  generated_on : string;
}

let synthesize ~platform ~impl ?(factor = 1.0) ~merged ~compute_table () =
  let shrink =
    if factor = 1.0 then Shrink.identity else Shrink.fit ~platform ~impl ~factor
  in
  let n = Compute_table.cluster_count compute_table in
  let combos = Array.make n [||] in
  let errors = Array.make n 0.0 in
  for cid = 0 to n - 1 do
    let target = Shrink.shrink_counters shrink (Compute_table.centroid compute_table cid) in
    let sol = Proxy_search.search ~platform target in
    combos.(cid) <- sol.Proxy_search.x;
    errors.(cid) <- sol.Proxy_search.error
  done;
  {
    merged;
    combos;
    combo_errors = errors;
    shrink;
    generated_on = platform.Siesta_platform.Spec.name;
  }

let validate t =
  Merged.validate t.merged;
  let n = Array.length t.combos in
  if Array.length t.combo_errors <> n then
    invalid_arg
      (Printf.sprintf "Proxy_ir: %d search errors for %d combinations"
         (Array.length t.combo_errors) n);
  Array.iteri
    (fun cid x ->
      if Array.length x <> Block.count then
        invalid_arg
          (Printf.sprintf "Proxy_ir: combination %d has %d entries, not %d" cid (Array.length x)
             Block.count))
    t.combos;
  Array.iter
    (function
      | Event.Compute cid when cid < 0 || cid >= n ->
          invalid_arg (Printf.sprintf "Proxy_ir: compute cluster %d has no combination" cid)
      | _ -> ())
    t.merged.Merged.terminals

let size_c_bytes t =
  Merged.serialized_bytes t.merged + (Array.length t.combos * ((Block.count * 4) + 4))

let mean_combo_error t =
  if Array.length t.combo_errors = 0 then 0.0
  else Siesta_util.Stats.mean t.combo_errors

let slot_counts t =
  let reqs = ref 0 and comms = ref 1 and files = ref 0 in
  let grow n i = if i >= !n then n := i + 1 in
  Array.iter
    (Event.iter_slots ~req:(grow reqs) ~comm:(grow comms) ~file:(grow files))
    t.merged.Merged.terminals;
  (!reqs, !comms, !files)

let program t =
  let terminals = Array.map (Shrink.event t.shrink) t.merged.Merged.terminals in
  let works = Array.map Block.works_of_combination t.combos in
  fun ctx ->
    let compute cid = List.iter (Engine.compute_work ctx) works.(cid) in
    let replay = Replay.create ctx ~compute in
    Merged.iter_rank (fun id -> Replay.exec replay terminals.(id)) t.merged (Engine.rank ctx)

module Event = Siesta_trace.Event
module Replay = Siesta_trace.Replay
module Compute_table = Siesta_trace.Compute_table
module Engine = Siesta_mpi.Engine
module Spec = Siesta_platform.Spec
module Cpu = Siesta_platform.Cpu
module Counters = Siesta_perf.Counters

exception Unsupported of string

type t = {
  streams : Event.t array array;  (* transformed per-rank streams *)
  sleeps : float array;  (* per computation cluster, seconds *)
}

let known_failure ~workload ~nranks =
  let w = String.lowercase_ascii workload in
  (w = "sp" && (nranks = 256 || nranks = 529))
  || w = "sod" || w = "sedov" || w = "stirturb"

(* histogram bin centre: [2^k, 2^(k+1)) -> 1.5 * 2^k *)
let quantize c =
  if c <= 2 then c
  else begin
    let k = int_of_float (Float.log2 (float_of_int c)) in
    3 * (1 lsl k) / 2
  end

(* Replay-side transformation of one rank's stream (see the interface for
   the rationale of each rewrite): requests become blocking calls, and
   every count is quantized. *)
let transform stream =
  let out = ref [] in
  let emit ev = out := Event.map_counts (fun _ c -> quantize c) ev :: !out in
  (* engine request slots we converted to blocking calls: their waits
     must be dropped *)
  let converted = Hashtbl.create 16 in
  Array.iter
    (fun ev ->
      match (ev : Event.t) with
      | Event.Isend (p, slot) ->
          Hashtbl.replace converted slot ();
          emit (Event.Send p)
      | Event.Irecv (_, slot) ->
          Hashtbl.remove converted slot;
          emit ev
      | Event.Wait slot ->
          if Hashtbl.mem converted slot then Hashtbl.remove converted slot else emit ev
      | Event.Waitall slots ->
          let kept = List.filter (fun s -> not (Hashtbl.mem converted s)) slots in
          List.iter (fun s -> Hashtbl.remove converted s) slots;
          if kept <> [] then emit (Event.Waitall kept)
      | Event.Ibarrier { comm; req } ->
          Hashtbl.replace converted req ();
          emit (Event.Barrier { comm })
      | Event.Ibcast { comm; root; dt; count; req } ->
          Hashtbl.replace converted req ();
          emit (Event.Bcast { comm; root; dt; count })
      | Event.Iallreduce { comm; dt; count; op; req } ->
          Hashtbl.replace converted req ();
          emit (Event.Allreduce { comm; dt; count; op })
      | _ -> emit ev)
    stream;
  Array.of_list (List.rev !out)

let synthesize ~platform ~workload ~nranks ~streams ~compute_table =
  if known_failure ~workload ~nranks then
    raise
      (Unsupported
         (Printf.sprintf "%s at %d processes: ScalaTrace V4 generation crash" workload nranks));
  (* RSD merge viability: the histogram layer absorbs parameter diversity,
     but the RSD structural merge needs ranks to share the event-sequence
     *shape* (same call names in the same order).  Count distinct shapes. *)
  let shapes = Hashtbl.create 64 in
  Array.iter
    (fun stream ->
      let key =
        String.concat "|" (Array.to_list (Array.map Event.name stream))
        |> Digest.string |> Digest.to_hex
      in
      Hashtbl.replace shapes key ())
    streams;
  if Hashtbl.length shapes > 16 then
    raise
      (Unsupported
         (Printf.sprintf "%s: %d distinct rank behaviours exceed the RSD merge capacity"
            workload (Hashtbl.length shapes)));
  let n = Compute_table.cluster_count compute_table in
  (* Durations, like message sizes, live in power-of-two histogram bins
     (ScalaTrace's delta-time histograms): replay sleeps the bin centre. *)
  let quantize_time t =
    if t <= 0.0 then 0.0
    else begin
      let k = Float.round (Float.log2 t -. 0.5) in
      1.5 *. (2.0 ** k)
    end
  in
  let sleeps =
    Array.init n (fun cid ->
        let c = Compute_table.centroid compute_table cid in
        quantize_time (Cpu.seconds_of_cycles platform.Spec.cpu c.Counters.cyc))
  in
  { streams = Array.map transform streams; sleeps }

let program t ctx =
  let replay = Replay.create ctx ~compute:(fun cid -> Engine.sleep ctx t.sleeps.(cid)) in
  Array.iter (Replay.exec replay) t.streams.(Engine.rank ctx)

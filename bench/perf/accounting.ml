(* Per-layer self time from a Chrome trace.

   A layer's self time is its span's duration minus the part covered by
   its child spans.  Two properties of the pipeline's spans make the
   naive "sum the durations per name" wrong:

   - the merge stage is wrapped twice, once by the stage timer in
     lib/core/pipeline.ml and once inside [merge_packed]; both spans are
     named "merge" and nest, so summed durations would count it twice;
   - the domain pool emits a "parallel.chunk" span per claimed range, on
     the worker tracks and also on the main track (the caller works too).

   So only the track that carries the benchmark's op spans is read, pool
   chunks are transparent (their time stays with the stage that posted
   them), and self time comes from time containment.  Within each op the
   self times then sum to the op's duration. *)

module Json = Siesta_obs.Json

type span = { name : string; tid : int; ts : float; dur : float }

let spans_of_chrome doc =
  let str k e = Option.bind (Json.member k e) Json.to_string_opt in
  let num k e = Option.bind (Json.member k e) Json.to_float_opt in
  Option.fold ~none:[] ~some:Json.to_list (Json.member "traceEvents" doc)
  |> List.filter_map (fun e ->
         match (str "ph" e, str "name" e, num "tid" e, num "ts" e, num "dur" e) with
         | Some "X", Some name, Some tid, Some ts, Some dur ->
             Some { name; tid = int_of_float tid; ts; dur }
         | _ -> None)

let op_span = "bench.op"
let transparent = [ "parallel.chunk" ]

type breakdown = {
  ops : int;  (** op spans found *)
  op_us : float;  (** their summed duration *)
  self_us : (string * float) list;
      (** summed self time per span name, over spans inside an op; the
          op span's own entry is the time no child covers *)
}

(* Timestamps print with three decimals, so a child can overhang its
   parent by a rounding step. *)
let eps_us = 0.01

type frame = { s : span; mutable child_us : float; in_op : bool }

let breakdown spans =
  let op_tids =
    List.sort_uniq compare
      (List.filter_map (fun s -> if s.name = op_span then Some s.tid else None) spans)
  in
  let on_track =
    List.mapi (fun i s -> (i, s)) spans
    |> List.filter (fun (_, s) -> List.mem s.tid op_tids && not (List.mem s.name transparent))
  in
  (* parents first: earlier start, then longer; on a full tie the span
     recorded later closed later, so it is the parent *)
  let order =
    List.sort
      (fun (i, a) (j, b) ->
        compare (a.tid, a.ts, -.a.dur, -i) (b.tid, b.ts, -.b.dur, -j))
      on_track
  in
  let self = Hashtbl.create 32 in
  let ops = ref 0 and op_us = ref 0.0 in
  let close f =
    if f.in_op then begin
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt self f.s.name) in
      Hashtbl.replace self f.s.name (prev +. f.s.dur -. f.child_us)
    end
  in
  let inside p s = s.tid = p.tid && s.ts +. s.dur <= p.ts +. p.dur +. eps_us in
  let stack =
    List.fold_left
      (fun stack (_, s) ->
        let rec unwind = function
          | f :: rest when not (inside f.s s) ->
              close f;
              unwind rest
          | st -> st
        in
        let stack = unwind stack in
        let in_op =
          s.name = op_span || match stack with f :: _ -> f.in_op | [] -> false
        in
        if s.name = op_span then begin
          incr ops;
          op_us := !op_us +. s.dur
        end;
        (match stack with f :: _ -> f.child_us <- f.child_us +. s.dur | [] -> ());
        { s; child_us = 0.0; in_op } :: stack)
      [] order
  in
  List.iter close stack;
  {
    ops = !ops;
    op_us = !op_us;
    self_us = Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [] |> List.sort compare;
  }

(* Span name -> per-layer metric.  Self time of any other span inside an
   op (and the op's own uncovered time) is reported as unattributed. *)
let layers =
  [
    ("trace.original", "mpi.original_s");
    ("trace.instrumented", "trace.instrumented_s");
    ("merge", "merge.s");
    ("merge.canon", "merge.canon_s");
    ("merge.sequitur", "merge.sequitur_s");
    ("merge.nonterminals", "merge.nonterminals_s");
    ("merge.position", "merge.position_s");
    ("merge.mains", "merge.mains_s");
    ("synthesize", "synth.search_s");
    ("codegen", "codegen.s");
    ("trace.store", "store.trace_put_s");
    ("merge.store", "store.merge_put_s");
    ("synthesize.store", "store.proxy_put_s");
    ("trace.cached", "store.trace_get_s");
    ("merge.cached", "store.merge_get_s");
    ("synthesize.cached", "store.proxy_get_s");
    ("capture.original", "diff.capture_original_s");
    ("capture.proxy", "diff.capture_proxy_s");
    ("diff", "diff.compare_s");
    ("check", "check.s");
  ]

(* Per-op mean seconds of every layer, plus "op.s" and
   "op.unattributed_s"; the layers and the unattributed remainder sum to
   "op.s". *)
let layer_seconds b =
  let n = float_of_int (max 1 b.ops) in
  let tbl = Hashtbl.create 32 in
  let add k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (name, us) ->
      add (Option.value ~default:"op.unattributed_s" (List.assoc_opt name layers)) us)
    b.self_us;
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) /. n /. 1e6 in
  ("op.s", b.op_us /. n /. 1e6)
  :: ("op.unattributed_s", get "op.unattributed_s")
  :: List.map (fun (_, k) -> (k, get k)) layers

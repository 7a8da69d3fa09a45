(* Tests for the streaming trace pipeline: SoA buffers, record-time
   interning, online Sequitur, the merge's per-shape grammars and the
   packed trace representation — including the two guarantees the
   pipeline rests on: the recorded events are the engine's own calls, and
   the packed merge equals the batch merge of the same events. *)

module E = Siesta_mpi.Engine
module Call = Siesta_mpi.Call
module D = Siesta_mpi.Datatype
module Op = Siesta_mpi.Op
module K = Siesta_perf.Kernel
module Event = Siesta_trace.Event
module Soa = Siesta_trace.Soa
module Recorder = Siesta_trace.Recorder
module Trace_io = Siesta_trace.Trace_io
module Grammar = Siesta_grammar.Grammar
module Sequitur = Siesta_grammar.Sequitur
module MPipe = Siesta_merge.Pipeline
module Merged = Siesta_merge.Merged
module Terminal_table = Siesta_merge.Terminal_table
module Metrics = Siesta_obs.Metrics
module Registry = Siesta_workloads.Registry

let platform = Siesta_platform.Spec.platform_a
let impl = Siesta_platform.Mpi_impl.openmpi

(* ------------------------------------------------------------------ *)
(* SoA buffers and the interner *)

let test_soa_append_get () =
  let b = Soa.create ~capacity:2 () in
  for i = 0 to 999 do
    Soa.append b (i * 3)
  done;
  Alcotest.(check int) "length" 1000 (Soa.length b);
  for i = 0 to 999 do
    if Soa.get b i <> i * 3 then Alcotest.failf "get %d" i
  done;
  Alcotest.(check bool) "oob raises" true
    (match Soa.get b 1000 with exception Invalid_argument _ -> true | _ -> false);
  let sum = ref 0 in
  Soa.iter (fun v -> sum := !sum + v) b;
  Alcotest.(check int) "iter sums" (3 * 999 * 1000 / 2) !sum

let test_soa_array_roundtrip () =
  let a = Array.init 257 (fun i -> (i * 7919) mod 1021) in
  Alcotest.(check bool) "roundtrip" true (Soa.to_array (Soa.of_array a) = a);
  Alcotest.(check int) "empty" 0 (Soa.length (Soa.of_array [||]));
  Alcotest.(check bool) "mem grows with capacity" true
    (Soa.mem_bytes (Soa.of_array a) >= 257 * 8)

let test_intern_dense_codes () =
  let it = Soa.Intern.create () in
  let ev1 = Event.Barrier { comm = 0 } in
  let ev2 = Event.Compute 7 in
  Alcotest.(check int) "first is 0" 0 (Soa.Intern.intern it ev1);
  Alcotest.(check int) "second is 1" 1 (Soa.Intern.intern it ev2);
  Alcotest.(check int) "repeat reuses" 0 (Soa.Intern.intern it ev1);
  Alcotest.(check int) "size" 2 (Soa.Intern.size it);
  Alcotest.(check bool) "defs in code order" true (Soa.Intern.defs it = [| ev1; ev2 |])

(* ------------------------------------------------------------------ *)
(* Online Sequitur: push/finalize against the batch construction *)

let codes_gen =
  QCheck.Gen.(array_size (0 -- 300) (0 -- 15))

let arb_codes = QCheck.make ~print:QCheck.Print.(array int) codes_gen

let prop_push_equals_batch =
  QCheck.Test.make ~count:200 ~name:"online push/finalize equals batch of_seq" arb_codes
    (fun seq ->
      List.for_all
        (fun rle ->
          let b = Sequitur.create ~rle () in
          Array.iter (Sequitur.push b) seq;
          Grammar.equal (Sequitur.finalize b) (Sequitur.of_seq ~rle seq))
        [ true; false ])

(* The builder recycles the node slots that rule creation and expansion
   free, so its memory tracks the grammar, not the stream: once a
   periodic stream (or a single run) has settled into its final grammar,
   pushing 1 M events allocates no further node slots. *)
let test_memory_bounded_by_grammar () =
  let body = [| 0; 1; 2; 3; 1; 2; 4; 4; 4; 5 |] in
  List.iter
    (fun (name, sym) ->
      let b = Sequitur.create ~rle:true () in
      let pushed = ref 0 in
      let push_to n =
        while !pushed < n do
          Sequitur.push b (sym !pushed);
          incr pushed
        done
      in
      push_to 16_384;
      let settled = Sequitur.node_capacity b in
      push_to 1_000_000;
      Alcotest.(check int) (name ^ ": node capacity after 1M events") settled
        (Sequitur.node_capacity b);
      let g = Sequitur.finalize b in
      Alcotest.(check int) (name ^ ": expanded length") 1_000_000 (Grammar.expanded_length g))
    [ ("periodic", fun i -> body.(i mod Array.length body)); ("uniform run", fun _ -> 7) ]

(* Once the grammar has settled, a push allocates nothing: the node
   store, rule store and digram index are flat int arrays. *)
let test_steady_state_allocation_free () =
  let body = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
  let b = Sequitur.create ~rle:true () in
  let feed n = for i = 0 to n - 1 do Sequitur.push b body.(i mod Array.length body) done in
  feed 10_000;
  let n = 100_000 in
  let before = Gc.minor_words () in
  feed n;
  let words = Gc.minor_words () -. before in
  if words >= float_of_int n then
    Alcotest.failf "%.0f minor words for %d pushes (%.2f per symbol)" words n
      (words /. float_of_int n)

let prop_finalize_midstream_harmless =
  QCheck.Test.make ~count:100 ~name:"mid-stream finalize does not disturb the builder"
    arb_codes (fun seq ->
      let b = Sequitur.create ~rle:true () in
      Array.iteri
        (fun i c ->
          Sequitur.push b c;
          if i mod 50 = 25 then ignore (Sequitur.finalize b))
        seq;
      Grammar.equal (Sequitur.finalize b) (Sequitur.of_seq ~rle:true seq))

(* The property the merge-time canonicalization relies on: Sequitur's
   structure depends only on symbol equality, so construction commutes
   with any injective renaming of the terminal alphabet. *)
let prop_construction_commutes_with_bijection =
  QCheck.Test.make ~count:200
    ~name:"Sequitur construction commutes with terminal bijections"
    (QCheck.make
       ~print:(fun (seq, _) -> QCheck.Print.(array int) seq)
       QCheck.Gen.(
         let* seq = codes_gen in
         let* shift = 1 -- 15 in
         (* an explicit permutation of the 16-symbol alphabet *)
         let sigma = Array.init 16 (fun v -> (v + shift) mod 16) in
         return (seq, sigma)))
    (fun (seq, sigma) ->
      let f v = sigma.(v) in
      List.for_all
        (fun rle ->
          Grammar.equal
            (Grammar.map_terminals f (Sequitur.of_seq ~rle seq))
            (Sequitur.of_seq ~rle (Array.map f seq)))
        [ true; false ])

(* ------------------------------------------------------------------ *)
(* The recorder against the engine's own calls *)

(* Run [program] once under the recorder, with its hook wrapped in a call
   logger: the logger sees exactly the calls the recorder saw.  It must
   not read [papi], because the recorder's [read_delta] resets it. *)
let record_logging_calls ~nranks program =
  let r = Recorder.create ~nranks () in
  let h = Recorder.hook r in
  let calls = Array.make nranks [] in
  let on_event ~rank ~papi ~call =
    calls.(rank) <- call :: calls.(rank);
    h.E.on_event ~rank ~papi ~call
  in
  ignore (E.run ~platform ~impl ~nranks ~hook:{ h with E.on_event } program);
  (r, Array.map (fun l -> Array.of_list (List.rev l)) calls)

(* One decoded event against the call it records on [rank] of [nranks]:
   same function, same payload and, for point-to-point, the same absolute
   peer, tag, datatype and count.  [where] names the event in a failure. *)
let check_event ~nranks ~rank ~where ev (c : Call.t) =
  let p2p (p : Event.p2p) (q : Call.p2p) =
    let peer =
      if p.rel_peer = Call.any_source then Call.any_source else (p.rel_peer + rank) mod nranks
    in
    if (peer, p.tag, p.dt, p.count) <> (q.peer, q.tag, q.dt, q.count) then
      Alcotest.failf "%s: peer %d tag %d count %d recorded for peer %d tag %d count %d" where peer
        p.tag p.count q.peer q.tag q.count
  in
  if Event.name ev <> Call.name c then
    Alcotest.failf "%s: %s recorded for %s" where (Event.name ev) (Call.name c);
  if Event.payload_bytes ev <> Call.payload_bytes c then
    Alcotest.failf "%s: %d payload bytes recorded for %d" where (Event.payload_bytes ev)
      (Call.payload_bytes c);
  match (ev, c) with
  | ( (Event.Send p | Event.Recv p | Event.Isend (p, _) | Event.Irecv (p, _)),
      (Call.Send q | Call.Recv q | Call.Isend (q, _) | Call.Irecv (q, _)) ) ->
      p2p p q
  | Event.Sendrecv { send; recv }, Call.Sendrecv { send = qs; recv = qr } ->
      p2p send qs;
      p2p recv qr
  | _ -> ()

(* Every registry workload: each rank's decoded non-compute events are
   its logged calls, one to one and in order, and the raw trace size is
   the calls' records plus one 64-byte record per compute event. *)
let test_recorded_events_match_calls () =
  List.iter
    (fun (w : Registry.t) ->
      let nranks = if w.valid_procs 4 then 4 else 9 in
      let r, calls = record_logging_calls ~nranks (w.program ~nranks ~iters:(Some 2)) in
      let raw_bytes = ref 0 in
      for rank = 0 to nranks - 1 do
        let evs = Recorder.events r rank in
        let comm = List.filter (fun ev -> not (Event.is_compute ev)) (Array.to_list evs) in
        let cs = calls.(rank) in
        if List.length comm <> Array.length cs then
          Alcotest.failf "%s rank %d: %d events recorded for %d calls" w.name rank
            (List.length comm) (Array.length cs);
        List.iteri
          (fun i ev ->
            let where = Printf.sprintf "%s rank %d call %d" w.name rank i in
            check_event ~nranks ~rank ~where ev cs.(i))
          comm;
        raw_bytes :=
          !raw_bytes
          + (64 * (Array.length evs - List.length comm))
          + Array.fold_left (fun acc c -> acc + Call.record_bytes c) 0 cs
      done;
      Alcotest.(check int) (w.name ^ " raw trace bytes") !raw_bytes (Recorder.raw_trace_bytes r))
    Registry.all

let ring ctx =
  let r = E.rank ctx and n = E.size ctx in
  for _ = 1 to 4 do
    E.compute ctx (K.compute_bound ~label:"k" ~flops:1e5 ~div_frac:0.0);
    let rq = E.irecv ctx ~src:((r + n - 1) mod n) ~tag:2 ~dt:D.Double ~count:100 in
    E.send ctx ~dest:((r + 1) mod n) ~tag:2 ~dt:D.Double ~count:100;
    E.wait ctx rq;
    E.allreduce ctx (E.comm_world ctx) ~dt:D.Double ~count:1 ~op:Op.Sum
  done

(* The merge has two modes: the pipeline merges every recording through
   the packed path, and the batch reference [merge_streams] runs over the
   same recording's boxed events.  Both must give the same merged grammar. *)
let test_merge_mode_equivalence () =
  let r = Recorder.create ~nranks:4 () in
  ignore (E.run ~platform ~impl ~nranks:4 ~hook:(Recorder.hook r) ring);
  let ms = MPipe.merge_packed (Trace_io.pack r) in
  let mb = MPipe.merge_streams ~nranks:4 (Array.init 4 (Recorder.events r)) in
  Merged.validate ms;
  Alcotest.(check bool) "packed merge equals batch merge" true (Merged.equal ms mb)

(* ------------------------------------------------------------------ *)
(* Rank shapes: code streams that are equal up to a renaming of codes *)

(* 1–8 ranks, each the image of one of 1–3 base streams under its own
   injection of the base alphabet into [Event.Compute] events.  One rank
   in four then has one event replaced by another of its own events (a
   fresh one if its stream is a single run), which keeps its length and,
   from two events on, changes its shape. *)
let shaped_streams_gen =
  QCheck.Gen.(
    let* nbases = 1 -- 3 in
    let* bases = array_size (return nbases) (array_size (0 -- 40) (0 -- 5)) in
    let* nranks = 1 -- 8 in
    array_size (return nranks)
      (let* base = map (Array.get bases) (int_bound (nbases - 1)) in
       let* rename = map Array.of_list (shuffle_l (List.init 16 Fun.id)) in
       let* mutate = map (( = ) 0) (int_bound 3) in
       let* pos = int_bound (max 0 (Array.length base - 1)) in
       let evs = Array.map (fun v -> Event.Compute rename.(v)) base in
       if mutate && Array.length evs > 0 then
         evs.(pos) <-
           Option.value ~default:(Event.Compute 16) (Array.find_opt (( <> ) evs.(pos)) evs);
       return evs))

let arb_shaped_streams =
  QCheck.make
    ~print:
      QCheck.Print.(
        array (array (function Event.Compute c -> string_of_int c | ev -> Event.to_key ev)))
    shaped_streams_gen

(* Intern round-robin across ranks, as a recording interleaves them, so
   the packed codes are not the canonical rank-major numbering. *)
let pack_interleaved streams =
  let intern = Soa.Intern.create () in
  let bufs = Array.map (fun s -> Soa.create ~capacity:(Array.length s) ()) streams in
  let longest = Array.fold_left (fun m s -> max m (Array.length s)) 0 streams in
  for i = 0 to longest - 1 do
    Array.iteri
      (fun r s -> if i < Array.length s then Soa.append bufs.(r) (Soa.Intern.intern intern s.(i)))
      streams
  done;
  {
    Trace_io.p_nranks = Array.length streams;
    p_defs = Soa.Intern.defs intern;
    p_codes = bufs;
    p_centroids = [||];
  }

let per_rank_sequitur ~rle streams =
  Array.map (Sequitur.of_seq ~rle) (Terminal_table.sequences (Terminal_table.build streams))

let prop_shapes_match_per_rank_sequitur =
  QCheck.Test.make ~count:200
    ~name:"shared rank shapes give per-rank Sequitur and the batch merge" arb_shaped_streams
    (fun streams ->
      let nranks = Array.length streams in
      let pk = pack_interleaved streams in
      List.for_all
        (fun rle ->
          let config = { MPipe.default_config with rle } in
          Array.for_all2 Grammar.equal (MPipe.rank_grammars ~rle pk)
            (per_rank_sequitur ~rle streams)
          && Merged.equal (MPipe.merge_packed ~config pk)
               (MPipe.merge_streams ~config ~nranks streams))
        [ true; false ])

(* Rank 1 is rank 0 renamed and shares its Sequitur run; rank 2 is rank 0
   with its last event changed and rank 3 a run of one event, so each
   needs its own. *)
let test_shape_sharing () =
  let c = Array.map (fun v -> Event.Compute v) in
  let r0 = c [| 0; 1; 2; 0; 1; 2; 0; 1; 3; 0; 1; 2 |] in
  let r1 = c [| 5; 4; 6; 5; 4; 6; 5; 4; 7; 5; 4; 6 |] in
  let r2 = c [| 0; 1; 2; 0; 1; 2; 0; 1; 3; 0; 1; 0 |] in
  let r3 = c (Array.make 12 9) in
  let streams = [| r0; r1; r2; r3 |] in
  let pk = pack_interleaved streams in
  Metrics.set_enabled true;
  Metrics.reset ();
  let shapes =
    Fun.protect ~finally:(fun () -> Metrics.set_enabled false) (fun () ->
        ignore (MPipe.merge_packed pk);
        Metrics.counter_value (Metrics.counter "merge.shapes"))
  in
  Alcotest.(check int) "Sequitur runs" 3 shapes;
  let expected = per_rank_sequitur ~rle:true streams in
  Array.iteri
    (fun r g ->
      if not (Grammar.equal g expected.(r)) then Alcotest.failf "rank %d grammar differs" r)
    (MPipe.rank_grammars ~rle:true pk)

let test_packed_memory_scales_with_defs () =
  (* the streaming claim at unit scale: the packed trace's GC-visible
     footprint is the definition table, so quadrupling the event count
     leaves defs unchanged *)
  let run iters =
    let r = Recorder.create ~nranks:4 () in
    ignore
      (E.run ~platform ~impl ~nranks:4 ~hook:(Recorder.hook r) (fun ctx ->
           for _ = 1 to iters do
             ring ctx
           done));
    Trace_io.pack r
  in
  let small = run 5 and large = run 20 in
  Alcotest.(check int) "defs stable under 4x events"
    (Array.length small.Trace_io.p_defs)
    (Array.length large.Trace_io.p_defs);
  Alcotest.(check bool) "events actually grew 4x" true
    (Trace_io.packed_total_events large > 3 * Trace_io.packed_total_events small)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_push_equals_batch;
      prop_finalize_midstream_harmless;
      prop_construction_commutes_with_bijection;
      prop_shapes_match_per_rank_sequitur;
    ]

let suite =
  qcheck_tests
  @ [
      ("soa append/get/iter", `Quick, test_soa_append_get);
      ("soa array roundtrip", `Quick, test_soa_array_roundtrip);
      ("interner assigns dense codes", `Quick, test_intern_dense_codes);
      ("online Sequitur memory bounded by grammar", `Quick, test_memory_bounded_by_grammar);
      ("online Sequitur steady state allocation-free", `Quick, test_steady_state_allocation_free);
      ("recorded events match the engine's calls", `Quick, test_recorded_events_match_calls);
      ("merges agree across modes", `Quick, test_merge_mode_equivalence);
      ("renamed ranks share one Sequitur run", `Quick, test_shape_sharing);
      ("packed memory scales with definitions", `Quick, test_packed_memory_scales_with_defs);
    ]

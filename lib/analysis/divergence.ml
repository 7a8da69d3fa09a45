module Engine = Siesta_mpi.Engine
module Call = Siesta_mpi.Call
module Papi = Siesta_perf.Papi
module Counters = Siesta_perf.Counters
module Metrics = Siesta_obs.Metrics
module Json = Siesta_obs.Json
module Event = Siesta_trace.Event
module Merged = Siesta_merge.Merged
module Proxy_ir = Siesta_synth.Proxy_ir

type capture = {
  c_nranks : int;
  c_result : Engine.result;
  c_counts : int array;
  c_bytes : int array;
  c_send_matrix : float array array;
  c_compute : Counters.t array array;
  c_kind_totals : (Timeline.kind * float) list array;
}

let capture ~platform ~impl ~nranks ?(seed = 42) program =
  let counts = Array.make Call.n_kinds 0 and bytes = Array.make Call.n_kinds 0 in
  let matrix = Array.make_matrix nranks nranks 0.0 in
  let compute = Array.make nranks [] in
  let hook =
    {
      Engine.on_event =
        (fun ~rank ~papi ~call ->
          (* PMPI-style: the delta read at a call boundary is the counter
             signature of the computation event that just finished *)
          let d = Papi.read_delta papi in
          if d.Counters.cyc > 0.0 then compute.(rank) <- d :: compute.(rank);
          let k = Call.index call and b = Call.payload_bytes call in
          counts.(k) <- counts.(k) + 1;
          bytes.(k) <- bytes.(k) + b;
          match call with
          | Call.Send p | Call.Isend (p, _) | Call.Sendrecv { send = p; _ } ->
              let dst = p.Call.peer in
              if dst >= 0 && dst < nranks then
                matrix.(rank).(dst) <- matrix.(rank).(dst) +. float_of_int b
          | _ -> ());
      per_event_overhead = 0.0;
    }
  in
  let kind_totals, result = Timeline.record_totals ~platform ~impl ~nranks ~hook ~seed program in
  {
    c_nranks = nranks;
    c_result = result;
    c_counts = counts;
    c_bytes = bytes;
    c_send_matrix = matrix;
    c_compute = Array.map (fun l -> Array.of_list (List.rev l)) compute;
    c_kind_totals = kind_totals;
  }

(* ------------------------------------------------------------------ *)

type call_stat = {
  cs_name : string;
  cs_count_orig : int;
  cs_count_proxy : int;
  cs_bytes_orig : int;
  cs_bytes_proxy : int;
}

type metric_err = {
  me_metric : Counters.metric;
  me_mean : float;
  me_p95 : float;
  me_max : float;
  me_events : int;
}

type report = {
  r_nranks : int;
  r_call_stats : call_stat list;
  r_comm_matrix_dist : float;
  r_lossless : bool;
  r_reasons : string list;
  r_count_delta : int;
  r_bytes_delta : int;
  r_unreceived_delta : int;
  r_orphaned_delta : int;
  r_ranks_differ : bool;
  r_compute_errors : metric_err list;
  r_compute_unpaired : int;
  r_timeline_distance : float;
  r_time_orig : float;
  r_time_proxy : float;
  r_time_error : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) i))
  end

let diff ~original ~proxy =
  let nr = min original.c_nranks proxy.c_nranks in
  (* --- communication ------------------------------------------------ *)
  let call_stats =
    List.init Call.n_kinds Fun.id
    |> List.filter (fun k -> original.c_counts.(k) > 0 || proxy.c_counts.(k) > 0)
    |> List.map (fun k ->
           {
             cs_name = Call.kind_name k;
             cs_count_orig = original.c_counts.(k);
             cs_count_proxy = proxy.c_counts.(k);
             cs_bytes_orig = original.c_bytes.(k);
             cs_bytes_proxy = proxy.c_bytes.(k);
           })
    |> List.sort (fun a b -> compare a.cs_name b.cs_name)
  in
  let mo = original.c_send_matrix and mp = proxy.c_send_matrix in
  let l1 = ref 0.0 and vol = ref 0.0 in
  for i = 0 to nr - 1 do
    for j = 0 to nr - 1 do
      l1 := !l1 +. Float.abs (mo.(i).(j) -. mp.(i).(j));
      vol := !vol +. mo.(i).(j)
    done
  done;
  let matrix_dist =
    if !vol > 0.0 then !l1 /. !vol else if !l1 > 0.0 then 1.0 else 0.0
  in
  let reasons = ref [] in
  if original.c_nranks <> proxy.c_nranks then
    reasons :=
      Printf.sprintf "rank count differs: %d vs %d" original.c_nranks proxy.c_nranks :: !reasons;
  List.iter
    (fun s ->
      if s.cs_count_orig <> s.cs_count_proxy then
        reasons :=
          Printf.sprintf "%s count %d -> %d" s.cs_name s.cs_count_orig s.cs_count_proxy :: !reasons
      else if s.cs_bytes_orig <> s.cs_bytes_proxy then
        reasons :=
          Printf.sprintf "%s bytes %d -> %d" s.cs_name s.cs_bytes_orig s.cs_bytes_proxy :: !reasons)
    call_stats;
  if matrix_dist > 0.0 then
    reasons := Printf.sprintf "comm-matrix L1 distance %.3e" matrix_dist :: !reasons;
  if original.c_result.Engine.unreceived_messages <> proxy.c_result.Engine.unreceived_messages then
    reasons :=
      Printf.sprintf "unreceived messages %d -> %d"
        original.c_result.Engine.unreceived_messages proxy.c_result.Engine.unreceived_messages
      :: !reasons;
  let reasons = List.rev !reasons in
  (* --- computation, per-event --------------------------------------- *)
  let metrics = Array.of_list Counters.all_metrics in
  let pairs = ref 0 in
  for rk = 0 to nr - 1 do
    pairs := !pairs + min (Array.length original.c_compute.(rk)) (Array.length proxy.c_compute.(rk))
  done;
  let errs = Array.map (fun _ -> Array.make !pairs 0.0) metrics in
  let lens = Array.make (Array.length metrics) 0 in
  let unpaired = ref 0 in
  for rk = 0 to nr - 1 do
    let ea = original.c_compute.(rk) and eb = proxy.c_compute.(rk) in
    let na = Array.length ea and nb = Array.length eb in
    unpaired := !unpaired + abs (na - nb);
    for i = 0 to min na nb - 1 do
      Array.iteri
        (fun mi m ->
          let a = Counters.get ea.(i) m and b = Counters.get eb.(i) m in
          if a > 0.0 then begin
            errs.(mi).(lens.(mi)) <- Float.abs (b -. a) /. a;
            lens.(mi) <- lens.(mi) + 1
          end)
        metrics
    done
  done;
  if original.c_nranks <> proxy.c_nranks then
    for rk = nr to max original.c_nranks proxy.c_nranks - 1 do
      if rk < original.c_nranks then unpaired := !unpaired + Array.length original.c_compute.(rk);
      if rk < proxy.c_nranks then unpaired := !unpaired + Array.length proxy.c_compute.(rk)
    done;
  let compute_errors =
    List.mapi
      (fun mi m ->
        let a = Array.sub errs.(mi) 0 lens.(mi) in
        Array.sort Float.compare a;
        let n = Array.length a in
        let mean = if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n in
        {
          me_metric = m;
          me_mean = mean;
          me_p95 = percentile a 0.95;
          me_max = (if n = 0 then 0.0 else a.(n - 1));
          me_events = n;
        })
      Counters.all_metrics
  in
  (* --- time --------------------------------------------------------- *)
  let ta = original.c_result.Engine.elapsed and tb = proxy.c_result.Engine.elapsed in
  let tl_dist =
    if nr = 0 || ta <= 0.0 then 0.0
    else begin
      let acc = ref 0.0 in
      for rk = 0 to nr - 1 do
        List.iter2
          (fun (_, a) (_, b) -> acc := !acc +. Float.abs (a -. b))
          original.c_kind_totals.(rk) proxy.c_kind_totals.(rk)
      done;
      !acc /. (float_of_int nr *. ta)
    end
  in
  let count_delta, bytes_delta =
    List.fold_left
      (fun (c, v) s ->
        ( c + abs (s.cs_count_orig - s.cs_count_proxy),
          v + abs (s.cs_bytes_orig - s.cs_bytes_proxy) ))
      (0, 0) call_stats
  in
  {
    r_nranks = original.c_nranks;
    r_call_stats = call_stats;
    r_comm_matrix_dist = matrix_dist;
    r_lossless = reasons = [];
    r_reasons = reasons;
    r_count_delta = count_delta;
    r_bytes_delta = bytes_delta;
    r_unreceived_delta =
      proxy.c_result.Engine.unreceived_messages
      - original.c_result.Engine.unreceived_messages;
    r_orphaned_delta =
      (* provably unmatched sends only: leftovers a different wildcard
         matching could have absorbed don't count against the proxy *)
      (let orphaned (r : Engine.result) =
         r.Engine.unreceived_messages - r.Engine.unreceived_wildcard_prone
       in
       orphaned proxy.c_result - orphaned original.c_result);
    r_ranks_differ = original.c_nranks <> proxy.c_nranks;
    r_compute_errors = compute_errors;
    r_compute_unpaired = !unpaired;
    r_timeline_distance = tl_dist;
    r_time_orig = ta;
    r_time_proxy = tb;
    r_time_error = (if ta > 0.0 then Float.abs (tb -. ta) /. ta else 0.0);
  }

(* ------------------------------------------------------------------ *)

type verdict = Faithful | Compute_divergent of string | Comm_divergent of string list

let verdict ?(compute_tolerance = 0.5) r =
  if not r.r_lossless then Comm_divergent r.r_reasons
  else begin
    let offenders =
      List.filter (fun e -> e.me_mean > compute_tolerance) r.r_compute_errors
    in
    match offenders with
    | [] -> Faithful
    | l ->
        Compute_divergent
          (String.concat ", "
             (List.map
                (fun e ->
                  Printf.sprintf "%s mean error %.2f > %.2f" (Counters.metric_name e.me_metric)
                    e.me_mean compute_tolerance)
                l))
  end

let verdict_name = function
  | Faithful -> "faithful"
  | Compute_divergent _ -> "compute-divergent"
  | Comm_divergent _ -> "comm-divergent"

(* The replay invariants a computation-shrinking factor must preserve:
   same ranks, same per-call-type counts, same unmatched-send balance.
   Byte/volume deltas are deliberately excluded — shrinking rewrites
   blocking-transfer volumes by design.  The unmatched-send reason gates
   on [r_orphaned_delta], not the raw unreceived total: leftovers a
   different wildcard matching would have absorbed are not structural
   defects (the wording matches Comm_check's static "unmatched send"
   violations). *)
let structural_reasons r =
  (if r.r_ranks_differ then [ "rank count differs" ] else [])
  @ List.filter_map
      (fun s ->
        if s.cs_count_orig <> s.cs_count_proxy then
          Some
            (Printf.sprintf "%s count %d -> %d" s.cs_name s.cs_count_orig s.cs_count_proxy)
        else None)
      r.r_call_stats
  @
  if r.r_orphaned_delta <> 0 then
    [ Printf.sprintf "unmatched sends delta %+d" r.r_orphaned_delta ]
  else []

let structural_lossless r = structural_reasons r = []

let verdict_at ?(compute_tolerance = 0.5) ~factor r =
  if factor <= 1.0 then verdict ~compute_tolerance r
  else
    match structural_reasons r with
    | _ :: _ as reasons -> Comm_divergent reasons
    | [] ->
        (* a factor-f proxy does 1/f of the work, so per-event relative
           error is expected to sit near 1 - 1/f; only the excess over
           that is divergence *)
        let expected = 1.0 -. (1.0 /. factor) in
        let offenders =
          List.filter
            (fun e -> e.me_mean -. expected > compute_tolerance)
            r.r_compute_errors
        in
        (match offenders with
        | [] -> Faithful
        | l ->
            Compute_divergent
              (String.concat ", "
                 (List.map
                    (fun e ->
                      Printf.sprintf "%s mean error %.2f > expected %.2f + %.2f"
                        (Counters.metric_name e.me_metric)
                        e.me_mean expected compute_tolerance)
                    l)))

(* ------------------------------------------------------------------ *)
(* Renderings *)

let to_markdown r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "### Communication replay\n\n";
  Buffer.add_string b "| call | count orig | count proxy | bytes orig | bytes proxy |\n";
  Buffer.add_string b "|---|---:|---:|---:|---:|\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %d | %d | %d | %d |\n" s.cs_name s.cs_count_orig s.cs_count_proxy
           s.cs_bytes_orig s.cs_bytes_proxy))
    r.r_call_stats;
  Buffer.add_string b
    (Printf.sprintf "\ncomm-matrix distance (normalized L1): %.3e\n" r.r_comm_matrix_dist);
  if r.r_lossless then Buffer.add_string b "\n**Communication replay: lossless.**\n"
  else begin
    Buffer.add_string b "\n**Communication replay: NOT lossless:**\n\n";
    List.iter (fun reason -> Buffer.add_string b (Printf.sprintf "- %s\n" reason)) r.r_reasons
  end;
  Buffer.add_string b "\n### Computation error (per-event relative)\n\n";
  Buffer.add_string b "| metric | mean | p95 | max | events |\n|---|---:|---:|---:|---:|\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %.4f | %.4f | %.4f | %d |\n" (Counters.metric_name e.me_metric)
           e.me_mean e.me_p95 e.me_max e.me_events))
    r.r_compute_errors;
  if r.r_compute_unpaired > 0 then
    Buffer.add_string b
      (Printf.sprintf "\nunpaired computation events: %d\n" r.r_compute_unpaired);
  Buffer.add_string b "\n### Simulated time\n\n";
  Buffer.add_string b
    (Printf.sprintf "- original: %.6e s, proxy: %.6e s, relative error %.2f%%\n" r.r_time_orig
       r.r_time_proxy (100.0 *. r.r_time_error));
  Buffer.add_string b
    (Printf.sprintf "- timeline distance (per-rank kind totals): %.3e\n" r.r_timeline_distance);
  Buffer.contents b

let to_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"nranks\": %d,\n" r.r_nranks);
  Buffer.add_string b
    (Printf.sprintf "  \"lossless\": %b,\n  \"comm_matrix_distance\": %.6e,\n" r.r_lossless
       r.r_comm_matrix_dist);
  Buffer.add_string b "  \"reasons\": [";
  Buffer.add_string b
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "\"%s\"" (Json.escape s)) r.r_reasons));
  Buffer.add_string b "],\n  \"calls\": {\n";
  let n = List.length r.r_call_stats in
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "    \"%s\": {\"count_orig\": %d, \"count_proxy\": %d, \"bytes_orig\": %d, \
            \"bytes_proxy\": %d}%s\n"
           (Json.escape s.cs_name) s.cs_count_orig s.cs_count_proxy s.cs_bytes_orig s.cs_bytes_proxy
           (if i < n - 1 then "," else "")))
    r.r_call_stats;
  Buffer.add_string b "  },\n  \"compute_error\": {\n";
  let n = List.length r.r_compute_errors in
  List.iteri
    (fun i e ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": {\"mean\": %.6e, \"p95\": %.6e, \"max\": %.6e, \"events\": %d}%s\n"
           (Counters.metric_name e.me_metric) e.me_mean e.me_p95 e.me_max e.me_events
           (if i < n - 1 then "," else "")))
    r.r_compute_errors;
  Buffer.add_string b
    (Printf.sprintf "  },\n  \"compute_unpaired\": %d,\n" r.r_compute_unpaired);
  Buffer.add_string b
    (Printf.sprintf
       "  \"time_orig_s\": %.6e,\n  \"time_proxy_s\": %.6e,\n  \"time_error\": %.6e,\n\
       \  \"timeline_distance\": %.6e\n}\n"
       r.r_time_orig r.r_time_proxy r.r_time_error r.r_timeline_distance);
  Buffer.contents b

let publish_metrics r =
  Metrics.set (Metrics.gauge "diff.comm.lossless") (if r.r_lossless then 1.0 else 0.0);
  Metrics.set (Metrics.gauge "diff.comm.count_delta") (float_of_int r.r_count_delta);
  Metrics.set (Metrics.gauge "diff.comm.bytes_delta") (float_of_int r.r_bytes_delta);
  Metrics.set (Metrics.gauge "diff.comm.matrix_distance") r.r_comm_matrix_dist;
  List.iter
    (fun e ->
      Metrics.set
        (Metrics.gauge ("diff.compute.err_mean." ^ Counters.metric_name e.me_metric))
        e.me_mean)
    r.r_compute_errors;
  Metrics.set (Metrics.gauge "diff.timeline.distance") r.r_timeline_distance;
  Metrics.set (Metrics.gauge "diff.time.error") r.r_time_error

(* ------------------------------------------------------------------ *)
(* Deliberate damage, for testing the detector *)

let perturb what (ir : Proxy_ir.t) =
  match what with
  | `Compute -> { ir with Proxy_ir.combos = Array.map (Array.map (fun x -> x *. 1.5)) ir.Proxy_ir.combos }
  | `Comm ->
      let m = ir.Proxy_ir.merged in
      let terminals = Array.copy m.Merged.terminals in
      (* bump the first count of the first send-side terminal (a
         Sendrecv's send count, which map_counts visits first); fall back
         to any payload-carrying collective *)
      let sends = function Event.Send _ | Event.Isend _ | Event.Sendrecv _ -> true | _ -> false in
      let colls = function
        | Event.Bcast _ | Event.Allreduce _ | Event.Allgather _ | Event.Alltoall _ | Event.Reduce _ ->
            true
        | _ -> false
      in
      match List.find_map (fun kind -> Array.find_index kind terminals) [ sends; colls ] with
      | None -> invalid_arg "Divergence.perturb: no perturbable terminal"
      | Some i ->
          let first = ref true in
          let bump _ c = if !first then (first := false; c + 1) else c in
          terminals.(i) <- Event.map_counts bump terminals.(i);
          { ir with Proxy_ir.merged = { m with Merged.terminals } }

(* What the benchmark produces, and the check that BENCHMARK.json
   declares exactly that. *)

module Json = Siesta_obs.Json

type metric = { name : string; unit_ : string; better : string }

let m name unit_ better = { name; unit_; better }
let workloads = [ "long_trace"; "wide_ranks"; "registry_diff"; "warm_cache" ]

(* Untraced runs. *)
let end_to_end =
  [
    m "setup_s" "s" "lower";
    m "latency_p50_s" "s" "lower";
    m "latency_min_s" "s" "lower";
    m "peak_rss_mb" "MB" "lower";
    m "proxy_bytes" "bytes" "lower";
  ]

(* Traced runs.  Times are per-op means of self time on the main track. *)
let per_layer =
  [
    m "mpi.original_s" "s" "lower";
    m "mpi.calls_per_s" "1/s" "higher";
    m "trace.instrumented_s" "s" "lower";
    m "trace.recorder_s" "s" "lower";
    m "trace.events" "count" "higher";
    m "trace.events_per_s" "1/s" "higher";
    m "merge.s" "s" "lower";
    m "merge.canon_s" "s" "lower";
    m "merge.sequitur_s" "s" "lower";
    m "merge.nonterminals_s" "s" "lower";
    m "merge.position_s" "s" "lower";
    m "merge.mains_s" "s" "lower";
    m "merge.rules_global" "count" "lower";
    m "merge.clusters" "count" "lower";
    m "synth.search_s" "s" "lower";
    m "synth.qp_solves" "count" "lower";
    m "synth.qp_iterations" "count" "lower";
    m "codegen.s" "s" "lower";
    m "codegen.bytes" "bytes" "lower";
    m "codegen.mb_per_s" "MB/s" "higher";
    m "store.trace_put_s" "s" "lower";
    m "store.merge_put_s" "s" "lower";
    m "store.proxy_put_s" "s" "lower";
    m "store.trace_get_s" "s" "lower";
    m "store.merge_get_s" "s" "lower";
    m "store.proxy_get_s" "s" "lower";
    m "store.put_bytes" "bytes" "lower";
    m "store.get_bytes" "bytes" "lower";
    m "store.put_mb_per_s" "MB/s" "higher";
    m "store.get_mb_per_s" "MB/s" "higher";
    m "diff.capture_original_s" "s" "lower";
    m "diff.capture_proxy_s" "s" "lower";
    m "diff.compare_s" "s" "lower";
    m "check.s" "s" "lower";
    m "fidelity.time_error" "ratio" "lower";
    m "op.s" "s" "lower";
    m "op.count" "count" "higher";
    m "op.unattributed_s" "s" "lower";
    m "op.unattributed_frac" "ratio" "lower";
    m "op.minor_words" "words" "lower";
    m "op.minor_collections" "count" "lower";
    m "op.major_collections" "count" "lower";
    m "bench.tracing_overhead_pct" "%" "lower";
    m "host.domains" "count" "higher";
  ]

let max_bound = 0.25

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json validation *)

let all_chars ok s = String.for_all ok s
let alnum c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  s <> "" && String.length s <= 64 && alnum s.[0]
  && all_chars (fun c -> alnum c || String.contains "_.-" c) s

let valid_unit s =
  s <> "" && String.length s <= 16
  && all_chars (fun c -> alnum c || String.contains "_/%.-" c) s

let escapes_repo p =
  (p <> "" && p.[0] = '/') || List.mem ".." (String.split_on_char '/' p)

(* (name -> bound) of the end-to-end metrics, for the self-check. *)
let bounds doc =
  Option.fold ~none:[] ~some:Json.to_list (Json.member "end_to_end" doc)
  |> List.filter_map (fun o ->
         match (Json.member "name" o, Json.member "bound" o) with
         | Some (Json.Str n), Some (Json.Num b) -> Some (n, b)
         | _ -> None)

let validate doc =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let keys o = match o with Json.Obj kvs -> List.sort compare (List.map fst kvs) | _ -> [] in
  let expect_keys what o ks =
    if keys o <> List.sort compare ks then
      err "%s: keys must be exactly %s" what (String.concat ", " ks)
  in
  let str k o = Option.bind (Json.member k o) Json.to_string_opt in
  let list_field k lo hi =
    match Json.member k doc with
    | Some (Json.Arr l) when List.length l >= lo && List.length l <= hi -> l
    | _ ->
        err "%s: expected a list of %d to %d entries" k lo hi;
        []
  in
  expect_keys "BENCHMARK.json" doc
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ];
  List.iter
    (fun a ->
      match a with
      | Json.Str s when String.length s <= 200 && not (escapes_repo s) -> ()
      | _ ->
          err "command: %s is not a string of at most 200 characters inside the repo"
            (Json.to_string a))
    (list_field "command" 1 32);
  List.iter
    (fun p ->
      match p with
      | Json.Str s
        when s <> "" && String.length s <= 200 && (not (escapes_repo s))
             && all_chars (fun c -> alnum c || String.contains "_.-/" c) s ->
          ()
      | _ -> err "paths: %s is not a valid relative directory" (Json.to_string p))
    (list_field "paths" 1 16);
  (match Json.member "run_seconds" doc with
  | Some (Json.Num f) when Float.is_integer f && f >= 1.0 && f <= 60.0 -> ()
  | _ -> err "run_seconds: expected a whole number from 1 to 60");
  let names = ref [] in
  let named what o =
    match str "name" o with
    | Some n when valid_name n ->
        if List.mem n !names then err "%s: name %s is used twice" what n;
        names := n :: !names;
        Some n
    | _ ->
        err "%s: missing or malformed name in %s" what (Json.to_string o);
        None
  in
  let same_set what declared got =
    let missing = List.filter (fun n -> not (List.mem n got)) declared in
    let extra = List.filter (fun n -> not (List.mem n declared)) got in
    if missing <> [] then
      err "%s: produced by the bench but not declared: %s" what (String.concat ", " missing);
    if extra <> [] then
      err "%s: declared but not produced by the bench: %s" what (String.concat ", " extra)
  in
  let wl =
    List.filter_map
      (fun o ->
        expect_keys "workloads" o [ "name"; "why" ];
        (match str "why" o with
        | Some w when w <> "" && String.length w <= 200 && not (String.contains w '\n') -> ()
        | _ -> err "workloads: a why must be one line of at most 200 characters");
        named "workloads" o)
      (list_field "workloads" 2 8)
  in
  same_set "workloads" workloads wl;
  let metrics what declared ~bounded lo hi =
    let got =
      List.filter_map
        (fun o ->
          expect_keys what o
            ([ "name"; "unit"; "better" ] @ if bounded then [ "bound" ] else []);
          let name = named what o in
          let unit_ = Option.value ~default:"" (str "unit" o) in
          if not (valid_unit unit_) then err "%s: malformed unit %S" what unit_;
          let better = Option.value ~default:"" (str "better" o) in
          if better <> "lower" && better <> "higher" then
            err "%s: better must be \"lower\" or \"higher\", not %S" what better;
          (if bounded then
             match Json.member "bound" o with
             | Some (Json.Num b) when b >= 0.0 && b <= max_bound -> ()
             | _ -> err "%s: bound must be a number from 0 to %g" what max_bound);
          Option.iter
            (fun n ->
              match List.find_opt (fun d -> d.name = n) declared with
              | Some d when d.unit_ <> unit_ || d.better <> better ->
                  err "%s: %s is produced in %s (%s is better), declared %s (%s)" what n d.unit_
                    d.better unit_ better
              | _ -> ())
            name;
          name)
        (list_field what lo hi)
    in
    same_set what (List.map (fun d -> d.name) declared) got
  in
  metrics "end_to_end" end_to_end ~bounded:true 1 16;
  metrics "per_layer" per_layer ~bounded:false 1 128;
  (* setup time must carry the largest bound, so work moved into set-up
     shows *)
  let bs = bounds doc in
  (match List.assoc_opt "setup_s" bs with
  | Some b when List.for_all (fun (_, b') -> b' <= b) bs -> ()
  | Some _ -> err "end_to_end: setup_s must have the largest bound"
  | None -> ());
  List.rev !errors

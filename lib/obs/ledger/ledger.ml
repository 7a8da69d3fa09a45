module Json = Siesta_obs.Json
module Metrics = Siesta_obs.Metrics
module Log = Siesta_obs.Log
module Run_id = Siesta_obs.Run_id
module Store = Siesta_store.Store
module Codec = Siesta_store.Codec
module Hash = Siesta_store.Hash

(* Bumped whenever the record's field layout changes.  Independent of
   [Codec.schema_version]: the frame versions the wire container, this
   versions the JSON document inside it, so old records survive a codec
   schema bump of the stage artifacts... and vice versa. *)
let schema_version = 3

let run_kind = "run"

type fidelity = {
  lf_verdict : string;
  lf_lossless : bool;
  lf_time_error : float;
  lf_timeline_distance : float;
  lf_comm_matrix_dist : float;
  lf_max_compute_mean : float;
}

(* One measured point of a factor sweep (schema v2).  Counts are floats
   so the whole point round-trips through the JSON Num spelling. *)
type sweep_point = {
  sp_factor : float;
  sp_fidelity : fidelity;
  sp_count_delta : float;
  sp_bytes_delta : float;
  sp_compute_p95 : float;
  sp_compute_max : float;
  sp_proxy_bytes : float;
  sp_search_s : float;
  sp_total_s : float;
  sp_cache : (string * string) list;
}

(* Static communication-check outcome (schema v3). *)
type check = {
  lc_verdict : string;  (* "clean" | "violated" *)
  lc_violations : int;
  lc_reasons : string list;
}

type record = {
  r_schema : int;
  r_id : string;
  r_seq : int;
  r_kind : string;
  r_time : float;
  r_git : string;
  r_argv : string list;
  r_env : (string * string) list;
  r_spec : (string * string) list;
  r_cache : (string * string) list;
  r_timings : (string * float) list;
  r_sched : (string * float) list;
  r_heap : (string * float) list;
  r_metrics : Json.t;
  r_fidelity : fidelity option;
  r_sweep : sweep_point list;
  r_check : check option;
}

(* ------------------------------------------------------------------ *)
(* Provenance capture *)

(* git-describe of the working tree, resolved once per process — a run
   record names the code that produced it.  "unknown" outside a work
   tree or without git on PATH; telemetry never fails the pipeline. *)
let git_describe =
  lazy
    (try
       let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
       let line = try String.trim (input_line ic) with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with Unix.Unix_error _ | Sys_error _ -> "unknown")

(* The environment knobs that change pipeline behavior; only the ones
   actually set are recorded. *)
let captured_env () =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, v)) (Sys.getenv_opt k))
    [ "SIESTA_STORE"; "SIESTA_LOG"; "SIESTA_RUN_ID" ]

(* Allocation words are the reliable signals from [Gc.quick_stat] on a
   multicore runtime (the heap_words fields can read 0 there); both are
   kept so the streaming recorder's memory behavior shows up in trends. *)
let heap_stats () =
  let q = Gc.quick_stat () in
  [
    ("minor_words", q.Gc.minor_words);
    ("promoted_words", q.Gc.promoted_words);
    ("major_words", q.Gc.major_words);
    ("heap_words", float_of_int q.Gc.heap_words);
    ("top_heap_words", float_of_int q.Gc.top_heap_words);
    ("minor_collections", float_of_int q.Gc.minor_collections);
    ("major_collections", float_of_int q.Gc.major_collections);
    ("compactions", float_of_int q.Gc.compactions);
  ]

let make ~kind ?(spec = []) ?(cache = []) ?(timings = []) ?(sched = []) ?fidelity
    ?(sweep = []) ?check () =
  {
    r_schema = schema_version;
    r_id = Run_id.get ();
    r_seq = 0;
    r_kind = kind;
    r_time = Unix.gettimeofday ();
    r_git = Lazy.force git_describe;
    r_argv = Array.to_list Sys.argv;
    r_env = captured_env ();
    r_spec = spec;
    r_cache = cache;
    (* nan has no JSON spelling; a timing that is nan carries no
       information anyway *)
    r_timings = List.filter (fun (_, v) -> not (Float.is_nan v)) timings;
    r_sched = List.filter (fun (_, v) -> not (Float.is_nan v)) sched;
    r_heap = heap_stats ();
    r_metrics =
      (match Json.parse (Metrics.to_json ()) with Ok j -> j | Error _ -> Json.Obj []);
    r_fidelity = fidelity;
    r_sweep = sweep;
    r_check = check;
  }

(* ------------------------------------------------------------------ *)
(* JSON encoding *)

let json_of_fidelity f =
  Json.Obj
    [
      ("verdict", Json.Str f.lf_verdict);
      ("lossless", Json.Bool f.lf_lossless);
      ("time_error", Json.Num f.lf_time_error);
      ("timeline_distance", Json.Num f.lf_timeline_distance);
      ("comm_matrix_dist", Json.Num f.lf_comm_matrix_dist);
      ("max_compute_mean", Json.Num f.lf_max_compute_mean);
    ]

let json_of_sweep_point sp =
  Json.Obj
    [
      ("factor", Json.Num sp.sp_factor);
      ("fidelity", json_of_fidelity sp.sp_fidelity);
      ("count_delta", Json.Num sp.sp_count_delta);
      ("bytes_delta", Json.Num sp.sp_bytes_delta);
      ("compute_p95", Json.Num sp.sp_compute_p95);
      ("compute_max", Json.Num sp.sp_compute_max);
      ("proxy_bytes", Json.Num sp.sp_proxy_bytes);
      ("search_s", Json.Num sp.sp_search_s);
      ("total_s", Json.Num sp.sp_total_s);
      ("cache", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) sp.sp_cache));
    ]

let json_of_check c =
  Json.Obj
    [
      ("verdict", Json.Str c.lc_verdict);
      ("violations", Json.Num (float_of_int c.lc_violations));
      ("reasons", Json.Arr (List.map (fun s -> Json.Str s) c.lc_reasons));
    ]

let json_of_record r =
  let strs l = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) l) in
  let nums l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l) in
  Json.Obj
    [
      ("ledger_schema", Json.Num (float_of_int r.r_schema));
      ("id", Json.Str r.r_id);
      ("seq", Json.Num (float_of_int r.r_seq));
      ("kind", Json.Str r.r_kind);
      ("time", Json.Num r.r_time);
      ("git", Json.Str r.r_git);
      ("argv", Json.Arr (List.map (fun s -> Json.Str s) r.r_argv));
      ("env", strs r.r_env);
      ("spec", strs r.r_spec);
      ("cache", strs r.r_cache);
      (* array of pairs, not an object: stage names may repeat and order
         is the pipeline's execution order *)
      ( "timings",
        Json.Arr (List.map (fun (k, v) -> Json.Arr [ Json.Str k; Json.Num v ]) r.r_timings)
      );
      ("sched", nums r.r_sched);
      ("heap", nums r.r_heap);
      ("metrics", r.r_metrics);
      ( "fidelity",
        match r.r_fidelity with None -> Json.Null | Some f -> json_of_fidelity f );
      ("sweep", Json.Arr (List.map json_of_sweep_point r.r_sweep));
      ("check", match r.r_check with None -> Json.Null | Some c -> json_of_check c);
    ]

let encode r = Json.to_string (json_of_record r)

let fail fmt = Printf.ksprintf failwith fmt

let str_field name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> fail "Ledger: record is missing string field %S" name

let num_field name j =
  match Json.member name j with
  | Some (Json.Num f) -> f
  | _ -> fail "Ledger: record is missing numeric field %S" name

let str_kvs name j =
  match Json.member name j with
  | Some (Json.Obj l) ->
      List.filter_map (fun (k, v) -> match v with Json.Str s -> Some (k, s) | _ -> None) l
  | _ -> []

let num_kvs name j =
  match Json.member name j with
  | Some (Json.Obj l) ->
      List.filter_map (fun (k, v) -> match v with Json.Num f -> Some (k, f) | _ -> None) l
  | _ -> []

let fidelity_of_json f =
  {
    lf_verdict = str_field "verdict" f;
    lf_lossless =
      (match Json.member "lossless" f with Some (Json.Bool b) -> b | _ -> false);
    lf_time_error = num_field "time_error" f;
    lf_timeline_distance = num_field "timeline_distance" f;
    lf_comm_matrix_dist = num_field "comm_matrix_dist" f;
    lf_max_compute_mean = num_field "max_compute_mean" f;
  }

let sweep_point_of_json p =
  {
    sp_factor = num_field "factor" p;
    sp_fidelity =
      (match Json.member "fidelity" p with
      | Some f -> fidelity_of_json f
      | None -> fail "Ledger: sweep point is missing its fidelity");
    sp_count_delta = num_field "count_delta" p;
    sp_bytes_delta = num_field "bytes_delta" p;
    sp_compute_p95 = num_field "compute_p95" p;
    sp_compute_max = num_field "compute_max" p;
    sp_proxy_bytes = num_field "proxy_bytes" p;
    sp_search_s = num_field "search_s" p;
    sp_total_s = num_field "total_s" p;
    sp_cache = str_kvs "cache" p;
  }

let check_of_json c =
  {
    lc_verdict = str_field "verdict" c;
    lc_violations = int_of_float (num_field "violations" c);
    lc_reasons =
      (match Json.member "reasons" c with
      | Some (Json.Arr l) ->
          List.filter_map (function Json.Str s -> Some s | _ -> None) l
      | _ -> []);
  }

let record_of_json j =
  let schema = int_of_float (num_field "ledger_schema" j) in
  if schema > schema_version then
    fail "Ledger: record schema v%d is newer than runtime v%d" schema schema_version;
  {
    r_schema = schema;
    r_id = str_field "id" j;
    r_seq = int_of_float (num_field "seq" j);
    r_kind = str_field "kind" j;
    r_time = num_field "time" j;
    r_git = str_field "git" j;
    r_argv =
      (match Json.member "argv" j with
      | Some (Json.Arr l) ->
          List.filter_map (function Json.Str s -> Some s | _ -> None) l
      | _ -> []);
    r_env = str_kvs "env" j;
    r_spec = str_kvs "spec" j;
    r_cache = str_kvs "cache" j;
    r_timings =
      (match Json.member "timings" j with
      | Some (Json.Arr l) ->
          List.filter_map
            (function
              | Json.Arr [ Json.Str k; Json.Num v ] -> Some (k, v)
              | _ -> None)
            l
      | _ -> []);
    r_sched = num_kvs "sched" j;
    r_heap = num_kvs "heap" j;
    r_metrics = (match Json.member "metrics" j with Some m -> m | None -> Json.Obj []);
    r_fidelity =
      (match Json.member "fidelity" j with
      | None | Some Json.Null -> None
      | Some f -> Some (fidelity_of_json f));
    (* absent on v1 records — decode as an empty curve *)
    r_sweep =
      (match Json.member "sweep" j with
      | Some (Json.Arr l) -> List.map sweep_point_of_json l
      | _ -> []);
    (* absent on v1/v2 records *)
    r_check =
      (match Json.member "check" j with
      | None | Some Json.Null -> None
      | Some c -> Some (check_of_json c));
  }

let decode payload = record_of_json (Json.parse_exn payload)

(* ------------------------------------------------------------------ *)
(* Store I/O *)

let descr_of r = Printf.sprintf "run #%d %s id=%s t=%.6f" r.r_seq r.r_kind r.r_id r.r_time

let descr_seq d = try Scanf.sscanf d "run #%d" (fun n -> Some n) with _ -> None

(* max-existing + 1, parsed from the binding descriptors so it stays
   monotone across [gc] (a plain count would recycle pruned numbers). *)
let next_seq st =
  1
  + List.fold_left
      (fun acc (e : Store.entry) ->
        if e.Store.e_kind = run_kind then
          match descr_seq e.Store.e_descr with Some n -> max acc n | None -> acc
        else acc)
      0 (Store.entries st)

(* Held from [next_seq] to [bind], so two threads (the daemon's workers)
   never draw the same sequence number. *)
let append_lock = Mutex.create ()

let append st r =
  let r =
    Mutex.protect append_lock (fun () ->
        let r = { r with r_seq = next_seq st } in
        let descr = descr_of r in
        let hash = Store.put st (Codec.encode_run (encode r)) in
        Store.bind st ~key:(Hash.content_hash descr) ~hash ~kind:run_kind ~descr;
        r)
  in
  Log.debug (fun () ->
      ("ledger.append", [ ("seq", string_of_int r.r_seq); ("kind", r.r_kind) ]));
  r

let runs st =
  Store.entries st
  |> List.filter (fun (e : Store.entry) -> e.Store.e_kind = run_kind)
  |> List.filter_map (fun (e : Store.entry) ->
         let drop what =
           Log.warn (fun () ->
               ("ledger.runs", [ ("key", e.Store.e_key); ("error", what) ]));
           None
         in
         match Store.get st e.Store.e_hash with
         | None -> drop "blob missing"
         | Some blob -> (
             match decode (Codec.decode_run blob) with
             | r -> Some r
             | exception Codec.Corrupt m -> drop m
             | exception Failure m -> drop m))
  |> List.sort (fun a b -> compare (a.r_seq, a.r_time) (b.r_seq, b.r_time))

let find st sel =
  let rs = runs st in
  match int_of_string_opt sel with
  | Some n -> List.find_opt (fun r -> r.r_seq = n) rs
  | None ->
      let prefixed =
        List.filter
          (fun r ->
            String.length sel <= String.length r.r_id
            && String.sub r.r_id 0 (String.length sel) = sel)
          rs
      in
      (* several records share one process's id; the newest wins *)
      (match List.rev prefixed with r :: _ -> Some r | [] -> None)

let gc st ~keep =
  if keep < 0 then invalid_arg "Ledger.gc: negative keep";
  let entries =
    Store.entries st
    |> List.filter (fun (e : Store.entry) -> e.Store.e_kind = run_kind)
    |> List.sort (fun (a : Store.entry) b ->
           compare (descr_seq a.Store.e_descr) (descr_seq b.Store.e_descr))
  in
  let drop = max 0 (List.length entries - keep) in
  List.iteri
    (fun i (e : Store.entry) -> if i < drop then ignore (Store.rm st e.Store.e_key))
    entries;
  drop

(* ------------------------------------------------------------------ *)
(* Emission *)

let emit store thunk =
  match store with
  | None -> ()
  | Some st -> (
      try ignore (append st (thunk ()))
      with e ->
        Log.warn (fun () -> ("ledger.emit", [ ("error", Printexc.to_string e) ])))

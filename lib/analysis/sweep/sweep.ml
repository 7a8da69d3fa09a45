module Pipeline = Siesta.Pipeline
module Divergence = Siesta_analysis.Divergence
module Counters = Siesta_perf.Counters
module Ledger = Siesta_ledger.Ledger
module Codec = Siesta_store.Codec
module Clock = Siesta_obs.Clock
module Json = Siesta_obs.Json
module Log = Siesta_obs.Log
module Pretty_table = Siesta_util.Pretty_table

let default_factors = [ 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 ]

let factor_str f =
  if Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%g" f

(* ------------------------------------------------------------------ *)
(* Factor-schedule parsing (the CLI's --factors) *)

let parse_factors s =
  let toks = List.map String.trim (String.split_on_char ',' s) in
  match toks with
  | [] | [ "" ] -> Error "empty factor list"
  | toks ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | t :: rest -> (
            match float_of_string_opt t with
            | None -> Error (Printf.sprintf "factor %S is not a number" t)
            | Some f when (not (Float.is_finite f)) || f <= 0.0 ->
                Error (Printf.sprintf "factor %S is not positive" t)
            | Some f -> (
                match acc with
                | prev :: _ when f = prev ->
                    Error (Printf.sprintf "factor %S repeats" t)
                | prev :: _ when f < prev ->
                    Error
                      (Printf.sprintf "factor %S is out of order (schedule must increase)"
                         t)
                | _ -> go (f :: acc) rest))
      in
      go [] toks

(* ------------------------------------------------------------------ *)
(* The sweep itself *)

type point = {
  p_factor : float;
  p_report : Divergence.report;
  p_verdict : Divergence.verdict;
  p_proxy_bytes : int;
  p_search_s : float;
  p_total_s : float;
  p_cache : (string * string) list;
}

type t = {
  s_spec : Pipeline.spec;
  s_factors : float list;
  s_points : point list;
  s_total_s : float;
}

let worst acc_of r =
  List.fold_left
    (fun acc (e : Divergence.metric_err) -> Float.max acc (acc_of e))
    0.0 r.Divergence.r_compute_errors

let is_prefix pre s =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

let point_of ~cache ?store ?compute_tolerance ?perturb ~original spec factor =
  let (sy, proxy_ir, report), total_s =
    Clock.wall (fun () ->
        let sy = Pipeline.synthesize_spec ~cache ?store ~factor spec in
        let proxy_ir =
          match perturb with
          | None -> sy.Pipeline.sy_proxy
          | Some what -> Divergence.perturb what sy.Pipeline.sy_proxy
        in
        let proxy = Pipeline.capture_proxy_ir spec proxy_ir in
        (sy, proxy_ir, Divergence.diff ~original ~proxy))
  in
  let verdict = Divergence.verdict_at ?compute_tolerance ~factor report in
  Log.info (fun () ->
      ( "sweep.point",
        [
          ("factor", factor_str factor);
          ("verdict", Divergence.verdict_name verdict);
          ("total_s", Printf.sprintf "%.4f" total_s);
        ] ));
  {
    p_factor = factor;
    p_report = report;
    p_verdict = verdict;
    p_proxy_bytes = String.length (Codec.encode_proxy proxy_ir);
    p_search_s =
      List.fold_left
        (fun acc (name, s) -> if is_prefix "synthesize" name then acc +. s else acc)
        0.0 sy.Pipeline.sy_timings;
    p_total_s = total_s;
    p_cache = Pipeline.stage_outcomes sy.Pipeline.sy_status;
  }

let ledger_point p =
  let r = p.p_report in
  {
    Ledger.sp_factor = p.p_factor;
    sp_fidelity = Pipeline.ledger_fidelity_of_report ~verdict:p.p_verdict r;
    sp_count_delta = float_of_int r.Divergence.r_count_delta;
    sp_bytes_delta = float_of_int r.Divergence.r_bytes_delta;
    sp_compute_p95 = worst (fun e -> e.Divergence.me_p95) r;
    sp_compute_max = worst (fun e -> e.Divergence.me_max) r;
    sp_proxy_bytes = float_of_int p.p_proxy_bytes;
    sp_search_s = p.p_search_s;
    sp_total_s = p.p_total_s;
    sp_cache = p.p_cache;
  }

let run ?(cache = false) ?store ?compute_tolerance ?perturb ?(factors = default_factors)
    spec =
  (match factors with [] -> invalid_arg "Sweep.run: empty factor schedule" | _ -> ());
  let points, total_s =
    Clock.wall (fun () ->
        let original = Pipeline.capture_original spec in
        List.map (point_of ~cache ?store ?compute_tolerance ?perturb ~original spec) factors)
  in
  { s_spec = spec; s_factors = factors; s_points = points; s_total_s = total_s }

let record t =
  Ledger.make ~kind:"sweep"
    ~spec:
      (("factors", String.concat "," (List.map factor_str t.s_factors))
      :: Pipeline.spec_kvs t.s_spec)
    ~timings:[ ("sweep.total", t.s_total_s) ]
    ~sweep:(List.map ledger_point t.s_points) ()

let comm_divergent t =
  List.filter_map
    (fun p ->
      match p.p_verdict with Divergence.Comm_divergent _ -> Some p.p_factor | _ -> None)
    t.s_points

(* ------------------------------------------------------------------ *)
(* Renderings *)

let render t =
  let b = Buffer.create 1024 in
  let kvs = Pipeline.spec_kvs t.s_spec in
  let v k = Option.value ~default:"?" (List.assoc_opt k kvs) in
  Buffer.add_string b
    (Printf.sprintf "fidelity sweep: %s n=%s, %d factor(s), %.4f s total\n" (v "workload")
       (v "nranks") (List.length t.s_points) t.s_total_s);
  Buffer.add_string b
    (Pretty_table.render
       ~header:
         [
           "factor"; "verdict"; "time err"; "timeline"; "comm L1"; "compute mean";
           "bytes delta"; "proxy B"; "search s"; "cache";
         ]
       ~rows:
         (List.map
            (fun p ->
              let r = p.p_report in
              [
                factor_str p.p_factor;
                Divergence.verdict_name p.p_verdict;
                Printf.sprintf "%.4f" r.Divergence.r_time_error;
                Printf.sprintf "%.3e" r.Divergence.r_timeline_distance;
                Printf.sprintf "%.3e" r.Divergence.r_comm_matrix_dist;
                Printf.sprintf "%.4f" (worst (fun e -> e.Divergence.me_mean) r);
                string_of_int r.Divergence.r_bytes_delta;
                string_of_int p.p_proxy_bytes;
                Printf.sprintf "%.4f" p.p_search_s;
                String.concat "/" (List.map snd p.p_cache);
              ])
            t.s_points));
  (match comm_divergent t with
  | [] -> Buffer.add_string b "no factor crosses the comm-divergence rank\n"
  | l ->
      Buffer.add_string b
        (Printf.sprintf "COMM-DIVERGENT at factor(s): %s\n"
           (String.concat ", " (List.map factor_str l))));
  Buffer.contents b

let json_of t =
  let point p =
    let r = p.p_report in
    Json.Obj
      [
        ("factor", Json.Num p.p_factor);
        ("verdict", Json.Str (Divergence.verdict_name p.p_verdict));
        ("time_error", Json.Num r.Divergence.r_time_error);
        ("timeline_distance", Json.Num r.Divergence.r_timeline_distance);
        ("comm_matrix_dist", Json.Num r.Divergence.r_comm_matrix_dist);
        ("max_compute_mean", Json.Num (worst (fun e -> e.Divergence.me_mean) r));
        ("compute_p95", Json.Num (worst (fun e -> e.Divergence.me_p95) r));
        ("compute_max", Json.Num (worst (fun e -> e.Divergence.me_max) r));
        ("count_delta", Json.Num (float_of_int r.Divergence.r_count_delta));
        ("bytes_delta", Json.Num (float_of_int r.Divergence.r_bytes_delta));
        ("proxy_bytes", Json.Num (float_of_int p.p_proxy_bytes));
        ("search_s", Json.Num p.p_search_s);
        ("total_s", Json.Num p.p_total_s);
        ("cache", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) p.p_cache));
      ]
  in
  Json.Obj
    [
      ("spec", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) (Pipeline.spec_kvs t.s_spec)));
      ("factors", Json.Arr (List.map (fun f -> Json.Num f) t.s_factors));
      ("total_s", Json.Num t.s_total_s);
      ("points", Json.Arr (List.map point t.s_points));
    ]

let to_json t = Json.to_string (json_of t)

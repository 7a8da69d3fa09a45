module Json = Siesta_obs.Json
module Pretty_table = Siesta_util.Pretty_table

type thresholds = {
  t_stage_ratio : float;
  t_stage_min_s : float;
  t_fidelity_delta : float;
}

let default = { t_stage_ratio = 1.5; t_stage_min_s = 0.05; t_fidelity_delta = 0.05 }

type dimension = {
  d_name : string;
  d_base : string;
  d_cur : string;
  d_regressed : bool;
  d_note : string;
}

type comparison = {
  c_baseline : Ledger.record;
  c_current : Ledger.record;
  c_dimensions : dimension list;
  c_regressed : bool;
}

(* ------------------------------------------------------------------ *)
(* Baseline selection *)

let comparable a b =
  a.Ledger.r_kind = b.Ledger.r_kind
  && List.assoc_opt "workload" a.Ledger.r_spec = List.assoc_opt "workload" b.Ledger.r_spec
  && List.assoc_opt "nranks" a.Ledger.r_spec = List.assoc_opt "nranks" b.Ledger.r_spec

let baseline_for rs cur =
  List.fold_left
    (fun acc r ->
      if r.Ledger.r_seq < cur.Ledger.r_seq && comparable r cur then Some r else acc)
    None rs

(* ------------------------------------------------------------------ *)
(* Dimensions *)

let secs s = Printf.sprintf "%.4f s" s

(* The four fidelity error measures a verdict or a curve point carries. *)
let fid_measures (f : Ledger.fidelity) =
  [
    ("time_error", f.Ledger.lf_time_error);
    ("timeline_distance", f.Ledger.lf_timeline_distance);
    ("comm_matrix_dist", f.Ledger.lf_comm_matrix_dist);
    ("max_compute_mean", f.Ledger.lf_max_compute_mean);
  ]

let verdict_dims t base cur =
  match (base.Ledger.r_fidelity, cur.Ledger.r_fidelity) with
  | None, None -> []
  | None, Some f ->
      (* no baseline verdict to regress from: informational *)
      [ { d_name = "verdict"; d_base = "-"; d_cur = f.Ledger.lf_verdict; d_regressed = false;
          d_note = "no baseline verdict" } ]
  | Some f, None ->
      [ { d_name = "verdict"; d_base = f.Ledger.lf_verdict; d_cur = "-"; d_regressed = false;
          d_note = "current run has no verdict" } ]
  | Some b, Some c ->
      let worse =
        Ledger.verdict_rank c.Ledger.lf_verdict > Ledger.verdict_rank b.Ledger.lf_verdict
      in
      { d_name = "verdict"; d_base = b.Ledger.lf_verdict; d_cur = c.Ledger.lf_verdict;
        d_regressed = worse;
        d_note = (if worse then "verdict degraded" else "") }
      :: List.map2
           (fun (name, bv) (_, cv) ->
             let regressed = cv -. bv > t.t_fidelity_delta in
             {
               d_name = "fidelity." ^ name;
               d_base = Printf.sprintf "%.4g" bv;
               d_cur = Printf.sprintf "%.4g" cv;
               d_regressed = regressed;
               d_note =
                 (if regressed then
                    Printf.sprintf "+%.4g > allowed +%.4g" (cv -. bv) t.t_fidelity_delta
                  else "");
             })
           (fid_measures b) (fid_measures c)

(* Factor-curve comparison for sweep records: one dimension per factor
   present in either curve, named after the factor, so "fidelity at
   factor F degraded vs baseline sweep" is visible by name in the table.
   A factor regresses when its verdict rank worsens or any fidelity
   error measure worsens past the fidelity delta; factors swept on only
   one side are informational (nothing to compare against). *)
let sweep_dims t base cur =
  match (base.Ledger.r_sweep, cur.Ledger.r_sweep) with
  | [], [] -> []
  | bs, cs ->
      let point ps f =
        List.find_opt (fun (p : Ledger.sweep_point) -> p.Ledger.sp_factor = f) ps
      in
      let factors =
        List.sort_uniq compare
          (List.map (fun (p : Ledger.sweep_point) -> p.Ledger.sp_factor) (bs @ cs))
      in
      List.filter_map
        (fun f ->
          let name = "sweep.f" ^ Ledger.factor_str f in
          match (point bs f, point cs f) with
          | None, None -> None
          | None, Some c ->
              Some
                { d_name = name; d_base = "-";
                  d_cur = c.Ledger.sp_fidelity.Ledger.lf_verdict; d_regressed = false;
                  d_note = "factor not in baseline sweep" }
          | Some b, None ->
              Some
                { d_name = name; d_base = b.Ledger.sp_fidelity.Ledger.lf_verdict;
                  d_cur = "-"; d_regressed = false;
                  d_note = "factor not in current sweep" }
          | Some b, Some c ->
              let bf = b.Ledger.sp_fidelity and cf = c.Ledger.sp_fidelity in
              let worse_verdict =
                Ledger.verdict_rank cf.Ledger.lf_verdict
                > Ledger.verdict_rank bf.Ledger.lf_verdict
              in
              let worse_measures =
                List.filter_map
                  (fun ((n, bv), (_, cv)) ->
                    if cv -. bv > t.t_fidelity_delta then
                      Some (Printf.sprintf "%s +%.4g" n (cv -. bv))
                    else None)
                  (List.combine (fid_measures bf) (fid_measures cf))
              in
              let regressed = worse_verdict || worse_measures <> [] in
              Some
                {
                  d_name = name;
                  d_base = bf.Ledger.lf_verdict;
                  d_cur = cf.Ledger.lf_verdict;
                  d_regressed = regressed;
                  d_note =
                    (if regressed then
                       Printf.sprintf "fidelity at factor %g degraded vs baseline sweep: %s"
                         f
                         (String.concat "; "
                            ((if worse_verdict then [ "verdict degraded" ] else [])
                            @ worse_measures))
                     else "");
                })
        factors

(* Static-checker outcome: clean ranks below violated, unknown verdict
   names (future schema) rank worst so a transition into them is
   surfaced; any growth in the violation count also regresses. *)
let check_rank = function "clean" -> 0 | "violated" -> 1 | _ -> 2

let check_dims base cur =
  match (base.Ledger.r_check, cur.Ledger.r_check) with
  | None, None -> []
  | None, Some c ->
      [ { d_name = "check.verdict"; d_base = "-"; d_cur = c.Ledger.lc_verdict;
          d_regressed = false; d_note = "no baseline check" } ]
  | Some b, None ->
      [ { d_name = "check.verdict"; d_base = b.Ledger.lc_verdict; d_cur = "-";
          d_regressed = false; d_note = "current run has no check" } ]
  | Some b, Some c ->
      let worse = check_rank c.Ledger.lc_verdict > check_rank b.Ledger.lc_verdict in
      let more = c.Ledger.lc_violations > b.Ledger.lc_violations in
      [
        { d_name = "check.verdict"; d_base = b.Ledger.lc_verdict;
          d_cur = c.Ledger.lc_verdict; d_regressed = worse;
          d_note = (if worse then "communication check degraded" else "") };
        { d_name = "check.violations";
          d_base = string_of_int b.Ledger.lc_violations;
          d_cur = string_of_int c.Ledger.lc_violations;
          d_regressed = more;
          d_note =
            (if more then
               match c.Ledger.lc_reasons with
               | r :: _ -> r
               | [] -> "violation count grew"
             else "");
        };
      ]

(* A stage regresses only when it blew up in ratio AND by an absolute
   floor: warm-cache stage times are microseconds, where pure ratios
   would flap on scheduler noise. *)
let stage_dim t name bv cv =
  let regressed = cv >= bv *. t.t_stage_ratio && cv -. bv >= t.t_stage_min_s in
  {
    d_name = "stage." ^ name;
    d_base = secs bv;
    d_cur = secs cv;
    d_regressed = regressed;
    d_note =
      (if regressed then
         Printf.sprintf "%.2fx >= %.2fx and +%.4f s >= %.4f s" (cv /. bv) t.t_stage_ratio
           (cv -. bv) t.t_stage_min_s
       else if bv > 0.0 then Printf.sprintf "%.2fx" (cv /. bv)
       else "");
  }

let stage_dims t base cur =
  let common =
    List.filter_map
      (fun (name, bv) ->
        Option.map (fun cv -> (name, bv, cv)) (List.assoc_opt name cur.Ledger.r_timings))
      base.Ledger.r_timings
  in
  stage_dim t "total" (Ledger.total_s base) (Ledger.total_s cur)
  :: List.map (fun (name, bv, cv) -> stage_dim t name bv cv) common

(* Counter deltas for a small watchlist — context for the human reading
   the table, never a regression by themselves. *)
let counter_value metrics name =
  match Json.member name metrics with
  | Some entry -> (
      match Json.member "value" entry with Some (Json.Num v) -> Some v | _ -> None)
  | None -> None

let metric_dims base cur =
  List.filter_map
    (fun name ->
      match
        (counter_value base.Ledger.r_metrics name, counter_value cur.Ledger.r_metrics name)
      with
      (* a counter absent on one side reads as 0 — a fully-warm run has
         no cache.misses counter at all, and that delta is the story *)
      | None, None -> None
      | bo, co ->
          let bv = Option.value ~default:0.0 bo and cv = Option.value ~default:0.0 co in
          Some
            {
              d_name = "metric." ^ name;
              d_base = Printf.sprintf "%g" bv;
              d_cur = Printf.sprintf "%g" cv;
              d_regressed = false;
              d_note = Printf.sprintf "%+g" (cv -. bv);
            })
    [ "cache.hits"; "cache.misses"; "pipeline.traces" ]

let compare_runs ?(thresholds = default) ~baseline current =
  let dims =
    verdict_dims thresholds baseline current
    @ sweep_dims thresholds baseline current
    @ check_dims baseline current
    @ stage_dims thresholds baseline current
    @ metric_dims baseline current
  in
  {
    c_baseline = baseline;
    c_current = current;
    c_dimensions = dims;
    c_regressed = List.exists (fun d -> d.d_regressed) dims;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let describe r =
  Printf.sprintf "#%d %s %s@%s (%s)" r.Ledger.r_seq r.Ledger.r_kind
    (Option.value ~default:"?" (List.assoc_opt "workload" r.Ledger.r_spec))
    (Option.value ~default:"?" (List.assoc_opt "nranks" r.Ledger.r_spec))
    r.Ledger.r_git

let render c =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "baseline: %s\ncurrent:  %s\n" (describe c.c_baseline)
       (describe c.c_current));
  Buffer.add_string b
    (Pretty_table.render
       ~header:[ "dimension"; "baseline"; "current"; "status"; "note" ]
       ~rows:
         (List.map
            (fun d ->
              [ d.d_name; d.d_base; d.d_cur; (if d.d_regressed then "REGRESSED" else "ok");
                d.d_note ])
            c.c_dimensions));
  Buffer.add_string b
    (if c.c_regressed then
       Printf.sprintf "REGRESSION: %d dimension(s) over threshold\n"
         (List.length (List.filter (fun d -> d.d_regressed) c.c_dimensions))
     else "no regression\n");
  Buffer.contents b

let to_json c =
  let endpoint r =
    Json.Obj
      ([
         ("seq", Json.Num (float_of_int r.Ledger.r_seq));
         ("kind", Json.Str r.Ledger.r_kind);
         ("git", Json.Str r.Ledger.r_git);
       ]
      @
      match List.assoc_opt "workload" r.Ledger.r_spec with
      | Some w -> [ ("workload", Json.Str w) ]
      | None -> [])
  in
  Json.to_string
    (Json.Obj
       [
         ("baseline", endpoint c.c_baseline);
         ("current", endpoint c.c_current);
         ("regressed", Json.Bool c.c_regressed);
         ( "dimensions",
           Json.Arr
             (List.map
                (fun d ->
                  Json.Obj
                    [
                      ("name", Json.Str d.d_name);
                      ("baseline", Json.Str d.d_base);
                      ("current", Json.Str d.d_cur);
                      ("regressed", Json.Bool d.d_regressed);
                      ("note", Json.Str d.d_note);
                    ])
                c.c_dimensions) );
       ])

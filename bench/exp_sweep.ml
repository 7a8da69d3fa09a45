(* Sweep warm-path gate (part of `make bench-check`).

   A fidelity sweep over N factors shares the trace and merge stages
   across the whole schedule through the artifact store, so a re-sweep
   of an unchanged spec must be pure cache replay: every per-factor
   point reports hit/hit/hit and pays no proxy search.  This experiment
   runs a cold sweep into a wiped bench-local store, re-runs the same
   sweep warm, and (under --strict) fails the build if any warm point
   re-ran a stage.  It also pins the two invariants the observatory's
   consumers rely on: the warm curve's fidelity numbers are identical
   to the cold curve's (replayed artifacts, same diff), and no factor
   of the unperturbed seed workload reads as comm-divergent. *)

module Sweep = Siesta_sweep.Sweep
module Ledger = Siesta_ledger.Ledger
module Store = Siesta_store.Store

let bench_store_root = ".siesta-bench-sweep-store"

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

let factors = [ 1.0; 2.0; 4.0 ]

let cache_str (p : Ledger.sweep_point) = String.concat "/" (List.map snd p.Ledger.sp_cache)
let all_hits (p : Ledger.sweep_point) = List.for_all (fun (_, v) -> v = "hit") p.Ledger.sp_cache

let fail_strict fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "WARNING: %s\n" msg;
      if !Exp_common.strict then begin
        Printf.eprintf "sweep-warm: %s (--strict)\n" msg;
        exit 1
      end)
    fmt

let run () =
  Exp_common.heading "Fidelity sweep: warm re-sweep is pure cache replay";
  let workload, nranks = ("CG", 8) in
  let iters = if !Exp_common.quick then 3 else 6 in
  let spec = Siesta.Pipeline.spec ~workload ~nranks ~iters () in
  rm_rf bench_store_root;
  let store = Store.open_ ~root:bench_store_root () in
  let cold = Sweep.run ~store ~factors spec in
  let warm = Sweep.run ~store ~factors spec in
  Exp_common.table
    ~header:[ "factor"; "cold cache"; "warm cache"; "cold search (s)"; "warm search (s)" ]
    ~rows:
      (List.map2
         (fun c w ->
           [
             Ledger.factor_str c.Ledger.sp_factor;
             cache_str c;
             cache_str w;
             Exp_common.secs c.Ledger.sp_search_s;
             Exp_common.secs w.Ledger.sp_search_s;
           ])
         cold.Sweep.s_points warm.Sweep.s_points);
  Printf.printf "cold sweep %.4f s, warm sweep %.4f s\n" cold.Sweep.s_total_s
    warm.Sweep.s_total_s;
  (* Gate 1: every warm point is hit/hit/hit — zero trace/merge/search re-runs. *)
  List.iter
    (fun p ->
      if not (all_hits p) then
        fail_strict "warm sweep re-ran a stage at factor %s (%s)"
          (Ledger.factor_str p.Ledger.sp_factor) (cache_str p))
    warm.Sweep.s_points;
  (* Gate 2: replayed artifacts produce the same curve. *)
  List.iter2
    (fun c w ->
      let cf = c.Ledger.sp_fidelity and wf = w.Ledger.sp_fidelity in
      if
        cf.Ledger.lf_time_error <> wf.Ledger.lf_time_error
        || cf.Ledger.lf_comm_matrix_dist <> wf.Ledger.lf_comm_matrix_dist
        || c.Ledger.sp_proxy_bytes <> w.Ledger.sp_proxy_bytes
      then
        fail_strict "warm curve diverges from cold at factor %s"
          (Ledger.factor_str c.Ledger.sp_factor))
    cold.Sweep.s_points warm.Sweep.s_points;
  (* Gate 3: the unperturbed seed workload never crosses the
     comm-divergence rank at any scheduled factor. *)
  (match Sweep.comm_divergent warm with
  | [] -> ()
  | l ->
      fail_strict "comm-divergent at factor(s) %s"
        (String.concat ", " (List.map Ledger.factor_str l)));
  Printf.printf "warm sweep: all %d point(s) replayed from cache\n"
    (List.length warm.Sweep.s_points)

module Pipeline = Siesta.Pipeline
module Report = Siesta.Report
module Store = Siesta_store.Store
module Codec = Siesta_store.Codec
module Hash = Siesta_store.Hash
module Ledger = Siesta_ledger.Ledger
module Metrics = Siesta_obs.Metrics
module Clock = Siesta_obs.Clock
module Log = Siesta_obs.Log
module Json = Siesta_obs.Json
module Comm_check = Siesta_analysis.Comm_check
module Divergence = Siesta_analysis.Divergence
module Timeline_html = Siesta_analysis.Timeline_html
module Codegen_c = Siesta_synth.Codegen_c
module Spec_p = Siesta_platform.Spec
module Mpi_impl = Siesta_platform.Mpi_impl
module Sweep = Siesta_sweep.Sweep
module Sweep_html = Siesta_sweep.Sweep_html

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Job requests                                                         *)

type request = {
  r_spec : Pipeline.spec;
  r_factor : float;
  r_diff : bool;
  r_timeline : bool;
  r_sweep : float list option;
}

exception Bad_field of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad_field s)) fmt

let request_of_json body =
  match Json.parse body with
  | Error e -> Error (Printf.sprintf "invalid JSON: %s" e)
  | Ok j -> (
      let str name = Option.bind (Json.member name j) Json.to_string_opt in
      let int_field name =
        match Json.member name j with
        | None -> None
        | Some v -> (
            match Json.to_float_opt v with
            | Some f when Float.is_integer f -> Some (int_of_float f)
            | _ -> fail "%S must be an integer" name)
      in
      let bool_field name =
        match Json.member name j with
        | None -> false
        | Some (Json.Bool b) -> b
        | Some _ -> fail "%S must be a boolean" name
      in
      try
        let workload =
          match str "workload" with
          | Some w -> w
          | None -> fail "missing required field \"workload\""
        in
        let nranks =
          match int_field "nranks" with
          | Some n when n >= 1 -> n
          | Some _ -> fail "\"nranks\" must be >= 1"
          | None -> fail "missing required field \"nranks\""
        in
        let iters =
          match int_field "iters" with
          | Some i when i >= 1 -> Some i
          | Some _ -> fail "\"iters\" must be >= 1"
          | None -> None
        in
        let seed = Option.value (int_field "seed") ~default:42 in
        let named by_name default field =
          match Option.map by_name (str field) with
          | None -> default
          | Some (Ok v) -> v
          | Some (Error m) -> fail "%s" m
        in
        let platform = named Spec_p.by_name Spec_p.platform_a "platform" in
        let impl = named Mpi_impl.by_name Mpi_impl.openmpi "impl" in
        let factor =
          match Json.member "factor" j with
          | None -> 1.0
          | Some v -> (
              match Json.to_float_opt v with
              | Some f when f > 0.0 -> f
              | _ -> fail "\"factor\" must be a positive number")
        in
        let sweep =
          match str "factors" with
          | None -> None
          | Some s -> (
              match Sweep.parse_factors s with
              | Ok fl -> Some fl
              | Error e -> fail "bad \"factors\": %s" e)
        in
        let spec =
          match Pipeline.spec ?iters ~platform ~impl ~seed ~workload ~nranks () with
          | s -> s
          | exception Not_found -> fail "unknown workload %S" workload
          | exception Invalid_argument m -> fail "%s" m
        in
        Ok
          {
            r_spec = spec;
            r_factor = factor;
            r_diff = bool_field "diff";
            r_timeline = bool_field "timeline";
            r_sweep = sweep;
          }
      with Bad_field m -> Error m)

(* The job id is the content hash of this descriptor — identical specs
   submitted by different clients land on identical ids, which is what
   the singleflight dedup and the shared stage caches key off. *)
let descr_of_request r =
  let kvs = Pipeline.spec_kvs r.r_spec in
  let opts =
    [
      ("factor", Codec.float_repr r.r_factor);
      ("diff", string_of_bool r.r_diff);
      ("timeline", string_of_bool r.r_timeline);
      ( "factors",
        match r.r_sweep with
        | None -> "none"
        | Some fl -> String.concat "," (List.map Codec.float_repr fl) );
    ]
  in
  "serve job v1 "
  ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) (kvs @ opts))

let id_of_request r = Hash.content_hash (descr_of_request r)

(* ------------------------------------------------------------------ *)
(* Jobs                                                                 *)

type state = Queued | Running | Done | Failed of string

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"

type artifact = { a_name : string; a_hash : string; a_bytes : int; a_ctype : string }

type job = {
  id : string;
  descr : string;
  request : request;
  submitted : float;
  mutable state : state;
  mutable started : float;  (* 0. until running *)
  mutable finished : float;  (* 0. until done/failed *)
  mutable waiters : int;  (* coalesced submissions riding this job *)
  mutable artifacts : artifact list;
  mutable cache_status : Pipeline.cache_status option;
}

type t = {
  store : Store.t;
  max_queue : int;
  mu : Mutex.t;
  cond : Condition.t;
  queue : job Queue.t;
  flight : job Singleflight.t;
  all : (string, job) Hashtbl.t;
  mutable order : string list;  (* job ids, newest first *)
  mutable draining : bool;
  mutable nworkers : int;
  mutable threads : Thread.t list;
  mutable running : int;
  executed : int Atomic.t;
}

let g_depth () = Metrics.gauge "serve.queue_depth"
let c_executed () = Metrics.counter "serve.jobs.executed"
let c_failed () = Metrics.counter "serve.jobs.failed"
let c_coalesced () = Metrics.counter "serve.singleflight.coalesced"
let h_queue_wait () = Metrics.histogram "serve.queue_wait_s"
let h_job () = Metrics.histogram "serve.job_s"

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let ctype_of name =
  let ext =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> ""
  in
  match ext with
  | "c" -> "text/x-c"
  | "md" -> "text/markdown"
  | "json" -> "application/json"
  | "html" -> "text/html"
  | _ -> "text/plain"

let artifact_descr job_id name = Printf.sprintf "serve artifact v1 job=%s name=%s" job_id name
let artifact_key job_id name = Hash.content_hash (artifact_descr job_id name)

let run_job t job =
  let started = now () in
  with_mu t (fun () ->
      job.state <- Running;
      job.started <- started);
  Metrics.observe (h_queue_wait ()) (started -. job.submitted);
  Log.info (fun () ->
      ("serve.job.start", [ ("job", job.id); ("descr", job.descr) ]));
  (try
     let r = job.request in
     let sy =
       Pipeline.synthesize_spec ~store:t.store ~factor:r.r_factor r.r_spec
     in
     let arts = ref [] in
     let add name content =
       let hash = Store.put t.store (Codec.encode_text content) in
       Store.bind t.store ~key:(artifact_key job.id name) ~hash ~kind:"text"
         ~descr:(artifact_descr job.id name);
       arts :=
         { a_name = name; a_hash = hash; a_bytes = String.length content; a_ctype = ctype_of name }
         :: !arts
     in
     let timeline, _ = Pipeline.record_timeline r.r_spec in
     (* one fidelity feeds report.md, check.json and diff.json; the job's
        "report" record goes in first, so the report's History lists it *)
     let fid, diff_s = Clock.wall (fun () -> Pipeline.diff_synthesis sy) in
     Ledger.emit (Some t.store) (fun () ->
         Pipeline.ledger_record ~kind:"report" ~diff:(fid, diff_s) sy);
     add "proxy.c" (Codegen_c.generate sy.Pipeline.sy_proxy);
     add "report.md" (Report.generate ~timeline ~fidelity:fid sy);
     add "check.json" (Comm_check.to_json (Option.get fid.Pipeline.f_check));
     if r.r_diff then add "diff.json" (Divergence.to_json fid.Pipeline.f_report);
     if r.r_timeline then
       add "timeline.html" (Timeline_html.render ~title:("siesta job " ^ job.id) timeline);
     (match r.r_sweep with
     | None -> ()
     | Some factors ->
         let sw = Sweep.run ~store:t.store ~factors r.r_spec in
         Ledger.emit (Some t.store) (fun () -> Sweep.record sw);
         add "sweep.json" (Sweep.to_json sw);
         add "sweep.html" (Sweep_html.render ~title:("siesta job " ^ job.id) sw));
     with_mu t (fun () ->
         job.artifacts <- List.rev !arts;
         job.cache_status <- Some sy.Pipeline.sy_status;
         job.state <- Done)
   with e ->
     Metrics.incr (c_failed ()) 1;
     let msg = Printexc.to_string e in
     Log.warn (fun () -> ("serve.job.failed", [ ("job", job.id); ("error", msg) ]));
     with_mu t (fun () -> job.state <- Failed msg));
  job.finished <- now ();
  Atomic.incr t.executed;
  Metrics.incr (c_executed ()) 1;
  Metrics.observe (h_job ()) (job.finished -. started);
  (* evict the key so an identical later submission re-executes (and
     replays through the stage caches) instead of pinning to this job *)
  Singleflight.remove t.flight job.id;
  Log.info (fun () ->
      ( "serve.job.done",
        [
          ("job", job.id);
          ("state", state_name job.state);
          ("s", Printf.sprintf "%.3f" (job.finished -. started));
        ] ))

let rec worker_loop t =
  Mutex.lock t.mu;
  while Queue.is_empty t.queue && not t.draining do
    Condition.wait t.cond t.mu
  done;
  if Queue.is_empty t.queue then begin
    (* draining with nothing left: wake the drainer and exit *)
    Condition.broadcast t.cond;
    Mutex.unlock t.mu
  end
  else begin
    let job = Queue.pop t.queue in
    t.running <- t.running + 1;
    Metrics.set (g_depth ()) (float_of_int (Queue.length t.queue));
    Mutex.unlock t.mu;
    run_job t job;
    Mutex.lock t.mu;
    t.running <- t.running - 1;
    if t.draining && Queue.is_empty t.queue && t.running = 0 then Condition.broadcast t.cond;
    Mutex.unlock t.mu;
    worker_loop t
  end

let add_workers t n =
  if n > 0 then
    with_mu t (fun () ->
        t.nworkers <- t.nworkers + n;
        for _ = 1 to n do
          t.threads <- Thread.create worker_loop t :: t.threads
        done)

let create ?(workers = 1) ?(max_queue = 64) ~store () =
  if workers < 0 then invalid_arg "Jobs.create: workers < 0";
  if max_queue < 1 then invalid_arg "Jobs.create: max_queue < 1";
  let t =
    {
      store;
      max_queue;
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      flight = Singleflight.create ();
      all = Hashtbl.create 32;
      order = [];
      draining = false;
      nworkers = 0;
      threads = [];
      running = 0;
      executed = Atomic.make 0;
    }
  in
  add_workers t workers;
  t

let submit t req =
  let id = id_of_request req in
  with_mu t (fun () ->
      if t.draining then Error `Draining
      else
        match
          Singleflight.find_or_add t.flight id (fun () ->
              {
                id;
                descr = descr_of_request req;
                request = req;
                submitted = now ();
                state = Queued;
                started = 0.;
                finished = 0.;
                waiters = 0;
                artifacts = [];
                cache_status = None;
              })
        with
        | `Existing job ->
            job.waiters <- job.waiters + 1;
            Metrics.incr (c_coalesced ()) 1;
            Ok (job, `Coalesced)
        | `Fresh job ->
            if Queue.length t.queue >= t.max_queue then begin
              Singleflight.remove t.flight id;
              Error (`Queue_full (Queue.length t.queue))
            end
            else begin
              Hashtbl.replace t.all id job;
              t.order <- id :: List.filter (fun i -> i <> id) t.order;
              Queue.push job t.queue;
              Metrics.set (g_depth ()) (float_of_int (Queue.length t.queue));
              Condition.signal t.cond;
              Ok (job, `Fresh)
            end)

let find t id = with_mu t (fun () -> Hashtbl.find_opt t.all id)

let list t =
  with_mu t (fun () -> List.filter_map (fun id -> Hashtbl.find_opt t.all id) t.order)

let queue_depth t = with_mu t (fun () -> Queue.length t.queue)
let executed_count t = Atomic.get t.executed
let idle t = with_mu t (fun () -> Queue.is_empty t.queue && t.running = 0)

let begin_drain t =
  with_mu t (fun () ->
      if not t.draining then begin
        t.draining <- true;
        Condition.broadcast t.cond
      end)

let drain t =
  begin_drain t;
  Mutex.lock t.mu;
  (* with no workers there is nobody to empty the queue; don't wait forever *)
  while t.nworkers > 0 && not (Queue.is_empty t.queue && t.running = 0) do
    Condition.wait t.cond t.mu
  done;
  let threads = t.threads in
  t.threads <- [];
  Mutex.unlock t.mu;
  List.iter Thread.join threads

let draining t = with_mu t (fun () -> t.draining)

(* ------------------------------------------------------------------ *)
(* Renderings                                                           *)

let artifact_json a =
  Json.Obj
    [
      ("hash", Json.Str a.a_hash);
      ("bytes", Json.Num (float_of_int a.a_bytes));
      ("content_type", Json.Str a.a_ctype);
    ]

let job_json t job =
  with_mu t (fun () ->
      let base =
        [
          ("job", Json.Str job.id);
          ("state", Json.Str (state_name job.state));
          ("descr", Json.Str job.descr);
          ("waiters", Json.Num (float_of_int job.waiters));
        ]
      in
      let error = match job.state with Failed m -> [ ("error", Json.Str m) ] | _ -> [] in
      let timing =
        if job.started > 0. then
          [ ("queue_wait_s", Json.Num (job.started -. job.submitted)) ]
          @
          if job.finished > 0. then [ ("run_s", Json.Num (job.finished -. job.started)) ] else []
        else []
      in
      let cache =
        match job.cache_status with
        | None -> []
        | Some st ->
            [
              ( "cache",
                Json.Obj
                  (List.map (fun (k, v) -> (k, Json.Str v)) (Pipeline.stage_outcomes st)) );
            ]
      in
      let artifacts =
        match job.artifacts with
        | [] -> []
        | l -> [ ("artifacts", Json.Obj (List.map (fun a -> (a.a_name, artifact_json a)) l)) ]
      in
      Json.to_string (Json.Obj (base @ error @ timing @ cache @ artifacts)))

let list_json t =
  let jobs = list t in
  Json.to_string
    (Json.Obj
       [
         ("queue_depth", Json.Num (float_of_int (queue_depth t)));
         ( "jobs",
           Json.Arr
             (List.map
                (fun j ->
                  Json.Obj
                    [ ("job", Json.Str j.id); ("state", Json.Str (state_name j.state)) ])
                jobs) );
       ])

let artifact_content t job name =
  let art =
    with_mu t (fun () -> List.find_opt (fun a -> a.a_name = name) job.artifacts)
  in
  match art with
  | None -> None
  | Some a -> (
      match Store.get t.store a.a_hash with
      | None -> None
      | Some blob -> (
          match Codec.decode_text blob with
          | content -> Some (a, content)
          | exception Codec.Corrupt _ -> None))

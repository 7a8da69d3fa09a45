module Store = Siesta_store.Store
module Codec = Siesta_store.Codec
module Hash = Siesta_store.Hash
module Metrics = Siesta_obs.Metrics
module Log = Siesta_obs.Log
module Json = Siesta_obs.Json
module Run_id = Siesta_obs.Run_id
module Ledger = Siesta_ledger.Ledger

type config = {
  listen : Http.address;
  store_root : string option;
  workers : int;
  max_queue : int;
  max_body : int;
  read_timeout : float;
}

let default_config =
  {
    listen = `Unix ".siesta-serve.sock";
    store_root = None;
    workers = 1;
    max_queue = 64;
    max_body = 8 * 1024 * 1024;
    read_timeout = 10.0;
  }

type t = {
  config : config;
  store : Store.t;
  jobs : Jobs.t;
  listener : Unix.file_descr;
  stop : bool Atomic.t;
  mutable conns : Thread.t list;
  mutable server_thread : Thread.t option;
}

(* ------------------------------------------------------------------ *)
(* Setup                                                                *)

let bind_listener = function
  | `Unix path ->
      (* a stale socket file from a crashed daemon blocks bind *)
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | `Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen fd 64;
      fd

let create config =
  let store = Store.open_ ?root:config.store_root () in
  (* arm the observability stack exactly like the CLI's --ledger path:
     the daemon is long-running, so metrics and the run ledger are on
     for its whole life, not per-request *)
  Metrics.set_enabled true;
  Run_id.publish ();
  Ledger.set_sink (Some store);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let jobs = Jobs.create ~workers:config.workers ~max_queue:config.max_queue ~store () in
  let listener = bind_listener config.listen in
  {
    config;
    store;
    jobs;
    listener;
    stop = Atomic.make false;
    conns = [];
    server_thread = None;
  }

let install_signals t =
  let on _ = Atomic.set t.stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on)

let request_stop t = Atomic.set t.stop true

(* ------------------------------------------------------------------ *)
(* Routing                                                              *)

let json_err msg = Printf.sprintf {|{"error":%s}|} (Json.to_string (Json.Str msg))

let submit_response t (req : Http.request) =
  match Jobs.request_of_json req.Http.body with
  | Error msg -> Http.response 400 (json_err msg)
  | Ok jreq -> (
      match Jobs.submit t.jobs jreq with
      | Error `Draining -> Http.response 503 (json_err "draining: no new submissions")
      | Error (`Queue_full depth) ->
          Http.response 429
            (Printf.sprintf {|{"error":"queue full","queue_depth":%d}|} depth)
      | Ok (job, how) ->
          Http.response 202
            (Json.to_string
               (Json.Obj
                  [
                    ("job", Json.Str job.Jobs.id);
                    ("state", Json.Str (Jobs.state_name job.Jobs.state));
                    ("coalesced", Json.Bool (how = `Coalesced));
                  ])))

let blob_response t meth hash =
  if not (String.length hash = 32 && Hash.is_hex hash) then
    Http.response 400 (json_err "blob hashes are 32 hex characters")
  else
    match meth with
    | "GET" | "HEAD" -> (
        match Store.get t.store hash with
        | Some blob -> Http.response ~content_type:"application/octet-stream" 200 blob
        | None -> Http.response 404 (json_err "no such blob"))
    | _ -> Http.response 405 (json_err "use GET or HEAD on /blobs")

let job_response t id =
  match Jobs.find t.jobs id with
  | None -> Http.response 404 (json_err "no such job")
  | Some job -> Http.response 200 (Jobs.job_json t.jobs job)

let artifact_response t id name =
  match Jobs.find t.jobs id with
  | None -> Http.response 404 (json_err "no such job")
  | Some job -> (
      match job.Jobs.state with
      | Jobs.Queued | Jobs.Running ->
          Http.response 404 (json_err "job not finished yet")
      | Jobs.Failed msg -> Http.response 404 (json_err ("job failed: " ^ msg))
      | Jobs.Done -> (
          match Jobs.artifact_content t.jobs job name with
          | Some (art, content) ->
              Http.response ~content_type:art.Jobs.a_ctype 200 content
          | None -> Http.response 404 (json_err "no such artifact")))

let dispatch t (req : Http.request) =
  let segs = List.filter (fun s -> s <> "") (String.split_on_char '/' req.Http.path) in
  match (req.Http.meth, segs) with
  | ("GET" | "HEAD"), [ "healthz" ] ->
      Http.response 200
        (Json.to_string
           (Json.Obj
              [
                ("status", Json.Str "ok");
                ("run", Json.Str (Run_id.get ()));
                ("draining", Json.Bool (Jobs.draining t.jobs));
                ("queue_depth", Json.Num (float_of_int (Jobs.queue_depth t.jobs)));
              ]))
  | ("GET" | "HEAD"), [ "metricsz" ] -> Http.response 200 (Metrics.to_json ())
  | "POST", [ "jobs" ] -> submit_response t req
  | ("GET" | "HEAD"), [ "jobs" ] -> Http.response 200 (Jobs.list_json t.jobs)
  | ("GET" | "HEAD"), [ "jobs"; id ] -> job_response t id
  | ("GET" | "HEAD"), [ "jobs"; id; name ] -> artifact_response t id name
  | meth, [ "blobs"; hash ] -> blob_response t meth hash
  | _ -> Http.response 404 (json_err "no such route")

let route_label (req : Http.request) =
  match List.filter (fun s -> s <> "") (String.split_on_char '/' req.Http.path) with
  | [] -> "root"
  | seg :: _ -> ( match seg with "healthz" | "metricsz" | "jobs" | "blobs" -> seg | _ -> "other")

(* ------------------------------------------------------------------ *)
(* Connections                                                          *)

let handle_conn t fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.read_timeout
       with Unix.Unix_error _ -> ());
      let corr = Printf.sprintf "%s-%04x" (Run_id.get ()) (Hashtbl.hash fd land 0xffff) in
      let finish ?(head_only = false) route (resp : Http.response) =
        let resp =
          { resp with Http.headers = ("X-Siesta-Request", corr) :: resp.Http.headers }
        in
        Metrics.incr
          (Metrics.counter (Printf.sprintf "serve.req.%s.%d" route resp.Http.status))
          1;
        (try Http.write_response ~head_only fd resp with Unix.Unix_error _ -> ());
        Log.info (fun () ->
            ( "serve.request",
              [
                ("route", route);
                ("status", string_of_int resp.Http.status);
                ("corr", corr);
              ] ))
      in
      match Http.read_request ~max_body:t.config.max_body (Http.reader_of_fd fd) with
      | Error Http.Eof -> ()
      | Error Http.Timeout -> finish "parse" (Http.response 408 (json_err "request timed out"))
      | Error (Http.Malformed m) -> finish "parse" (Http.response 400 (json_err m))
      | Error (Http.Too_large m) -> finish "parse" (Http.response 413 (json_err m))
      | Ok req ->
          let head_only = req.Http.meth = "HEAD" in
          let resp =
            try dispatch t req
            with e ->
              Log.warn (fun () ->
                  ("serve.dispatch.error", [ ("error", Printexc.to_string e) ]));
              Http.response 500 (json_err "internal error")
          in
          finish ~head_only (route_label req) resp)

let max_conn_threads = 128

let serve t =
  let drain_sent = ref false in
  let rec loop () =
    if Atomic.get t.stop && not !drain_sent then begin
      drain_sent := true;
      Log.info (fun () -> ("serve.drain", []));
      Jobs.begin_drain t.jobs
    end;
    if Atomic.get t.stop && Jobs.idle t.jobs then ()
    else begin
      (match Unix.select [ t.listener ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listener with
          | fd, _ ->
              let th = Thread.create (fun () -> handle_conn t fd) () in
              t.conns <- th :: t.conns;
              if List.length t.conns > max_conn_threads then begin
                (* join the oldest to bound thread count; requests are short *)
                match List.rev t.conns with
                | oldest :: _ ->
                    Thread.join oldest;
                    t.conns <- List.filter (fun x -> x != oldest) t.conns
                | [] -> ()
              end
          | exception
              Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.ECONNABORTED), _, _) ->
            ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (match t.config.listen with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ());
  Jobs.drain t.jobs;
  List.iter Thread.join t.conns;
  t.conns <- [];
  Log.info (fun () -> ("serve.stopped", []))

let start t = t.server_thread <- Some (Thread.create serve t)

let stop t =
  request_stop t;
  match t.server_thread with
  | None -> ()
  | Some th ->
      Thread.join th;
      t.server_thread <- None

let jobs t = t.jobs
let store t = t.store

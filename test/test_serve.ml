(* Tests for the synthesis-as-a-service layer (siesta_serve): the
   hand-rolled HTTP parser's defensive behavior, job-spec parsing, an
   end-to-end daemon exercise proving the singleflight dedup — two
   concurrent submissions of the same spec run the pipeline once — and
   the run ledger: each job appends its own records, and a stopped
   daemon's store receives none. *)

module Http = Siesta_serve.Http
module Jobs = Siesta_serve.Jobs
module Server = Siesta_serve.Server
module Singleflight = Siesta_serve.Singleflight
module Store = Siesta_store.Store
module Hash = Siesta_store.Hash
module Pipeline = Siesta.Pipeline
module Json = Siesta_obs.Json
module Span = Siesta_obs.Span
module Ledger = Siesta_ledger.Ledger

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let with_temp_dir f =
  let root = Filename.temp_file "siesta_serve" ".d" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists root then rm_rf root) (fun () -> f root)

(* ------------------------------------------------------------------ *)
(* HTTP parser units *)

let parse s = Http.read_request (Http.reader_of_string s)

let test_parser_valid () =
  match parse "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody" with
  | Ok r ->
      Alcotest.(check string) "method" "POST" r.Http.meth;
      Alcotest.(check string) "path" "/jobs" r.Http.path;
      Alcotest.(check string) "body" "body" r.Http.body;
      Alcotest.(check (option string)) "header lowercased" (Some "x")
        (List.assoc_opt "host" r.Http.headers)
  | Error _ -> Alcotest.fail "valid request rejected"

let malformed = function Error (Http.Malformed _) -> true | _ -> false

let test_parser_truncated_request_line () =
  (* cut off mid request-line: malformed, not an exception *)
  Alcotest.(check bool) "truncated line" true (malformed (parse "GET /heal"));
  Alcotest.(check bool) "missing version" true (malformed (parse "GET /healthz\r\n\r\n"));
  Alcotest.(check bool) "bad version" true
    (malformed (parse "GET /healthz HTTP/9.9\r\n\r\n"));
  Alcotest.(check bool) "empty line" true (malformed (parse "\r\n"));
  (* a clean close before any bytes is Eof, not Malformed *)
  (match parse "" with
  | Error Http.Eof -> ()
  | _ -> Alcotest.fail "empty stream should be Eof");
  (* truncated body: Content-Length promises more than arrives *)
  Alcotest.(check bool) "truncated body" true
    (malformed (parse "POST /jobs HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort"))

let test_parser_oversized_body () =
  let req n =
    Printf.sprintf "POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" n
      (String.make (min n 64) 'x')
  in
  (match Http.read_request ~max_body:32 (Http.reader_of_string (req 64)) with
  | Error (Http.Too_large _) -> ()
  | _ -> Alcotest.fail "oversized body not rejected");
  (* the limit is checked against the declared length, before reading *)
  (match Http.read_request ~max_body:32 (Http.reader_of_string (req 1_000_000_000)) with
  | Error (Http.Too_large _) -> ()
  | _ -> Alcotest.fail "huge declared body not rejected");
  (* negative and non-numeric lengths are malformed *)
  Alcotest.(check bool) "negative length" true
    (malformed (parse "POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n"));
  Alcotest.(check bool) "bad length" true
    (malformed (parse "POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n"))

let test_parser_header_limits () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "GET / HTTP/1.1\r\n";
  for i = 0 to 99 do
    Buffer.add_string b (Printf.sprintf "X-H%d: v\r\n" i)
  done;
  Buffer.add_string b "\r\n";
  Alcotest.(check bool) "too many headers" true (malformed (parse (Buffer.contents b)));
  Alcotest.(check bool) "header without colon" true
    (malformed (parse "GET / HTTP/1.1\r\nnocolon\r\n\r\n"));
  Alcotest.(check bool) "line too long" true
    (malformed (parse ("GET /" ^ String.make 9000 'a' ^ " HTTP/1.1\r\n\r\n")))

let test_response_render () =
  let r = Http.response 200 "{\"ok\":true}" in
  let s = Http.render r in
  Alcotest.(check bool) "status line" true
    (String.length s > 15 && String.sub s 0 15 = "HTTP/1.1 200 OK");
  let head = Http.render ~head_only:true r in
  (* HEAD keeps the Content-Length of the full body but omits it *)
  Alcotest.(check bool) "head has length" true
    (String.length head < String.length s);
  let has_needle needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "content-length present" true
    (has_needle "Content-Length: 11" head);
  Alcotest.(check bool) "body omitted" false (has_needle "ok" head)

(* ------------------------------------------------------------------ *)
(* Job-spec parsing *)

let test_request_of_json () =
  (match Jobs.request_of_json {|{"workload":"CG","nranks":8,"iters":2,"factor":0.5}|} with
  | Ok r ->
      Alcotest.(check int) "nranks" 8 r.Jobs.r_spec.Pipeline.nranks;
      Alcotest.(check (option int)) "iters" (Some 2) r.Jobs.r_spec.Pipeline.iters;
      Alcotest.(check (float 1e-9)) "factor" 0.5 r.Jobs.r_factor
  | Error e -> Alcotest.fail ("valid spec rejected: " ^ e));
  let rejects body =
    match Jobs.request_of_json body with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %s" body)
  in
  rejects "not json at all";
  rejects "{\"nranks\":8}" (* no workload *);
  rejects {|{"workload":"CG"}|} (* no nranks *);
  rejects {|{"workload":"NOPE","nranks":8}|};
  rejects {|{"workload":"CG","nranks":0}|};
  rejects {|{"workload":"CG","nranks":8,"factor":-1}|};
  rejects {|{"workload":"CG","nranks":8,"iters":1.5}|};
  rejects {|{"workload":"CG","nranks":8,"diff":"yes"}|};
  rejects {|{"workload":"CG","nranks":8,"platform":"Z"}|};
  rejects {|{"workload":"CG","nranks":8,"factors":"bogus"}|}

let test_job_id_canonical () =
  let parse_ok body =
    match Jobs.request_of_json body with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let a = parse_ok {|{"workload":"CG","nranks":8,"iters":2}|} in
  (* field order and explicit defaults don't change the identity *)
  let b = parse_ok {|{"iters":2,"seed":42,"nranks":8,"workload":"CG"}|} in
  let c = parse_ok {|{"workload":"CG","nranks":8,"iters":3}|} in
  Alcotest.(check string) "order-insensitive id" (Jobs.id_of_request a)
    (Jobs.id_of_request b);
  Alcotest.(check bool) "different iters, different id" false
    (Jobs.id_of_request a = Jobs.id_of_request c);
  Alcotest.(check bool) "id is a content hash" true
    (Hash.is_hex (Jobs.id_of_request a) && String.length (Jobs.id_of_request a) = 32)

(* ------------------------------------------------------------------ *)
(* Singleflight *)

let test_singleflight () =
  let sf = Singleflight.create () in
  (match Singleflight.find_or_add sf "k" (fun () -> 1) with
  | `Fresh 1 -> ()
  | _ -> Alcotest.fail "first add should be fresh");
  (match Singleflight.find_or_add sf "k" (fun () -> 2) with
  | `Existing 1 -> ()
  | _ -> Alcotest.fail "second add should see the first value");
  Alcotest.(check int) "one key" 1 (Singleflight.size sf);
  Singleflight.remove sf "k";
  (match Singleflight.find_or_add sf "k" (fun () -> 3) with
  | `Fresh 3 -> ()
  | _ -> Alcotest.fail "after remove the key is fresh again");
  Alcotest.(check (option int)) "find" (Some 3) (Singleflight.find sf "k")

(* ------------------------------------------------------------------ *)
(* End to end: daemon on a unix socket, concurrent identical
   submissions coalesce onto exactly one pipeline execution. *)

let spec_body = {|{"workload":"CG","nranks":4,"iters":2}|}

let http_json addr meth path body =
  let body = Option.map (fun b -> b) body in
  match Http.request ~addr ~meth ~path ?body () with
  | Error e -> Alcotest.fail ("transport error: " ^ e)
  | Ok (status, _, body) -> (status, body)

let field path body =
  match Json.parse body with
  | Error e -> Alcotest.fail ("bad JSON response: " ^ e)
  | Ok doc ->
      List.fold_left
        (fun acc seg -> Option.bind acc (Json.member seg))
        (Some doc)
        (String.split_on_char '/' path)

let str_field path body = Option.bind (field path body) Json.to_string_opt

let rec poll_done addr job tries =
  if tries = 0 then Alcotest.fail "job did not finish in time";
  let _, body = http_json addr "GET" ("/jobs/" ^ job) None in
  match str_field "state" body with
  | Some "done" -> body
  | Some "failed" -> Alcotest.fail ("job failed: " ^ body)
  | _ ->
      Thread.delay 0.1;
      poll_done addr job (tries - 1)

let test_e2e_singleflight () =
  with_temp_dir (fun dir ->
      let sock = Filename.concat dir "serve.sock" in
      let config =
        {
          Server.default_config with
          Server.listen = `Unix sock;
          store_root = Some (Filename.concat dir "store");
          workers = 0 (* hold the queue until both submissions are in *);
        }
      in
      let t = Server.create config in
      Server.start t;
      Fun.protect
        ~finally:(fun () -> Server.stop t)
        (fun () ->
          let addr = `Unix sock in
          let status, body = http_json addr "GET" "/healthz" None in
          Alcotest.(check int) "healthz" 200 status;
          Alcotest.(check (option string)) "healthy" (Some "ok") (str_field "status" body);
          (* unknown routes and malformed wire input answer, not crash *)
          let status, _ = http_json addr "GET" "/no/such/route" None in
          Alcotest.(check int) "unknown route 404" 404 status;
          let status, _ = http_json addr "POST" "/jobs" (Some "{nope") in
          Alcotest.(check int) "bad JSON spec 400" 400 status;
          (* two identical submissions while the queue is held *)
          let s1, b1 = http_json addr "POST" "/jobs" (Some spec_body) in
          let s2, b2 = http_json addr "POST" "/jobs" (Some spec_body) in
          Alcotest.(check int) "first accepted" 202 s1;
          Alcotest.(check int) "second accepted" 202 s2;
          let job =
            match str_field "job" b1 with Some j -> j | None -> Alcotest.fail "no job id"
          in
          Alcotest.(check (option string)) "same job id" (Some job) (str_field "job" b2);
          (match (field "coalesced" b1, field "coalesced" b2) with
          | Some (Json.Bool false), Some (Json.Bool true) -> ()
          | _ -> Alcotest.fail "second submission must coalesce onto the first");
          (* now let one worker drain the queue *)
          Jobs.add_workers (Server.jobs t) 1;
          let body = poll_done addr job 300 in
          Alcotest.(check int) "exactly one pipeline execution" 1
            (Jobs.executed_count (Server.jobs t));
          (* the coalesced submission is visible as a waiter *)
          (match field "waiters" body with
          | Some (Json.Num 1.) -> ()
          | _ -> Alcotest.fail "coalesced waiter not recorded");
          (* artifacts: proxy.c served with its content type ... *)
          let status, proxy = http_json addr "GET" ("/jobs/" ^ job ^ "/proxy.c") None in
          Alcotest.(check int) "artifact served" 200 status;
          Alcotest.(check bool) "proxy is C" true
            (String.length proxy > 0
            && String.sub proxy 0 2 = "/*");
          (* ... and the raw blob behind it is byte-identical to the store *)
          let hash =
            match str_field "artifacts/proxy.c/hash" body with
            | Some h -> h
            | None -> Alcotest.fail "no artifact hash"
          in
          let status, blob = http_json addr "GET" ("/blobs/" ^ hash) None in
          Alcotest.(check int) "blob served" 200 status;
          Alcotest.(check (option string)) "blob byte-identical" (Some blob)
            (Store.get (Server.store t) hash);
          let status, _ = http_json addr "GET" "/blobs/zz" None in
          Alcotest.(check int) "bad hash 400" 400 status;
          (* a re-submission after completion is NOT pinned to the old job:
             the singleflight key was evicted, so it runs again (through
             the stage caches) *)
          let _, b3 = http_json addr "POST" "/jobs" (Some spec_body) in
          (match field "coalesced" b3 with
          | Some (Json.Bool false) -> ()
          | _ -> Alcotest.fail "warm re-submit must not coalesce onto a finished job");
          let body3 = poll_done addr job 300 in
          Alcotest.(check int) "warm re-submit executed again" 2
            (Jobs.executed_count (Server.jobs t));
          (* pure cache replay: every stage a hit *)
          List.iter
            (fun stage ->
              Alcotest.(check (option string))
                (stage ^ " stage hit") (Some "hit")
                (str_field ("cache/" ^ stage) body3))
            [ "trace"; "merge"; "proxy" ]))

(* ------------------------------------------------------------------ *)
(* Run ledger: the daemon's jobs append their own records *)

let request body =
  match Jobs.request_of_json body with Ok r -> r | Error e -> Alcotest.fail e

(* Submit every request to a worker-less manager, then let [workers]
   threads drain them together. *)
let run_jobs ~workers st bodies =
  let jobs = Jobs.create ~workers:0 ~store:st () in
  let submitted =
    List.map
      (fun b ->
        match Jobs.submit jobs (request b) with
        | Ok (job, _) -> job
        | Error _ -> Alcotest.fail "submission refused")
      bodies
  in
  Jobs.add_workers jobs workers;
  Jobs.drain jobs;
  List.iter
    (fun (j : Jobs.job) ->
      Alcotest.(check string) "job done" "done" (Jobs.state_name j.Jobs.state))
    submitted;
  (jobs, submitted)

let kinds st = List.sort compare (List.map (fun r -> r.Ledger.r_kind) (Ledger.runs st))

let test_stopped_daemon_appends_nothing () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "store" in
      let t =
        Server.create
          {
            Server.default_config with
            Server.listen = `Unix (Filename.concat dir "serve.sock");
            store_root = Some root;
            workers = 0;
          }
      in
      Server.start t;
      Server.stop t;
      rm_rf root;
      let s = Pipeline.spec ~iters:2 ~workload:"CG" ~nranks:4 () in
      ignore (Pipeline.diff_synthesis (Pipeline.synthesize_spec s));
      Alcotest.(check bool) "the deleted store stays deleted" false (Sys.file_exists root))

(* A sweep parks nothing: a plain job running on another worker during
   the sweep still appends its record. *)
let test_concurrent_sweep_keeps_records () =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~root:(Filename.concat dir "store") () in
      ignore
        (run_jobs ~workers:2 st
           [
             {|{"workload":"CG","nranks":4,"iters":2,"factors":"1,2"}|};
             {|{"workload":"CG","nranks":8,"iters":2}|};
           ]);
      Alcotest.(check (list string)) "one report per job and one sweep"
        [ "report"; "report"; "sweep" ] (kinds st);
      Alcotest.(check (list int)) "distinct sequence numbers" [ 1; 2; 3 ]
        (List.map (fun r -> r.Ledger.r_seq) (Ledger.runs st)))

(* One fidelity serves report.md, check.json and diff.json. *)
let test_diff_job_diffs_once () =
  with_temp_dir (fun dir ->
      let st = Store.open_ ~root:(Filename.concat dir "store") () in
      Span.reset ();
      Span.set_enabled true;
      let jobs, submitted =
        Fun.protect
          ~finally:(fun () -> Span.set_enabled false)
          (fun () ->
            run_jobs ~workers:1 st [ {|{"workload":"CG","nranks":4,"iters":2,"diff":true}|} ])
      in
      let spans name =
        match Json.member "traceEvents" (Json.parse_exn (Span.to_chrome_json ())) with
        | Some (Json.Arr evs) ->
            List.length
              (List.filter (fun e -> Json.member "name" e = Some (Json.Str name)) evs)
        | _ -> Alcotest.fail "no traceEvents"
      in
      let count name = (name, spans name) in
      Alcotest.(check (list (pair string int))) "one diff and one check per job"
        [ ("capture.original", 1); ("capture.proxy", 1); ("diff", 1); ("check", 1) ]
        [ count "capture.original"; count "capture.proxy"; count "diff"; count "check" ];
      Span.reset ();
      Alcotest.(check (list string)) "one report record" [ "report" ] (kinds st);
      let job = List.hd submitted in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " stored") true
            (Option.is_some (Jobs.artifact_content jobs job name)))
        [ "proxy.c"; "report.md"; "check.json"; "diff.json" ])

let suite =
  [
    ("http parser accepts a valid request", `Quick, test_parser_valid);
    ("http parser rejects truncated input", `Quick, test_parser_truncated_request_line);
    ("http parser rejects oversized bodies", `Quick, test_parser_oversized_body);
    ("http parser enforces header limits", `Quick, test_parser_header_limits);
    ("http response rendering (HEAD keeps length)", `Quick, test_response_render);
    ("job spec parsing rejects every malformed input", `Quick, test_request_of_json);
    ("job ids are canonical content hashes", `Quick, test_job_id_canonical);
    ("singleflight coalesces and evicts", `Quick, test_singleflight);
    ("e2e: concurrent identical submissions run once", `Slow, test_e2e_singleflight);
    ("a stopped daemon's store receives no records", `Slow, test_stopped_daemon_appends_nothing);
    ("a sweep job keeps a concurrent job's record", `Slow, test_concurrent_sweep_keeps_records);
    ("a diff job diffs and checks once", `Slow, test_diff_job_diffs_once);
  ]

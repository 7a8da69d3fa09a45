let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

type event = {
  e_name : string;
  e_cat : string;
  e_ph : char; (* 'X' complete, 'i' instant, 'M' metadata *)
  e_ts_us : float;
  e_dur_us : float;
  e_tid : int;
  e_args : (string * string) list;
}

(* One global buffer under a mutex: spans close at stage granularity, so
   contention is negligible next to the work they measure.  [seen_tids]
   drives the one-time thread_name metadata event per domain. *)
let lock = Mutex.create ()
let events : event list ref = ref []
let nevents = ref 0
let seen_tids : (int, unit) Hashtbl.t = Hashtbl.create 8

let tid () = (Domain.self () :> int)

let push_locked e =
  events := e :: !events;
  incr nevents

(* The first event on a domain's track labels it ("main" for domain 0). *)
let ensure_tid_locked tid =
  if not (Hashtbl.mem seen_tids tid) then begin
    Hashtbl.add seen_tids tid ();
    let name = if tid = 0 then "main" else Printf.sprintf "domain-%d" tid in
    push_locked
      { e_name = "thread_name"; e_cat = "__metadata"; e_ph = 'M'; e_ts_us = 0.0; e_dur_us = 0.0;
        e_tid = tid; e_args = [ ("name", name) ] }
  end

let record e =
  Mutex.protect lock (fun () ->
      ensure_tid_locked e.e_tid;
      push_locked e)

let with_ ?(cat = "siesta") ?(attrs = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = Clock.now_us () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_us () in
        record
          { e_name = name; e_cat = cat; e_ph = 'X'; e_ts_us = t0; e_dur_us = t1 -. t0;
            e_tid = tid (); e_args = attrs })
      f
  end

let instant ?(cat = "siesta") ?(attrs = []) name =
  if Atomic.get on then
    record
      { e_name = name; e_cat = cat; e_ph = 'i'; e_ts_us = Clock.now_us (); e_dur_us = 0.0;
        e_tid = tid (); e_args = attrs }

let event_count () = Mutex.protect lock (fun () -> !nevents)

let reset () =
  Mutex.protect lock (fun () ->
      events := [];
      nevents := 0;
      Hashtbl.reset seen_tids)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export *)

let escape = Json.escape

let args_json args =
  args
  |> List.map (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" (escape k) (escape v))
  |> String.concat ", "

let event_json e =
  let b = Buffer.create 160 in
  Buffer.add_string b
    (Printf.sprintf "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", \"pid\": 1, \"tid\": %d"
       (escape e.e_name) (escape e.e_cat) e.e_ph e.e_tid);
  (match e.e_ph with
  | 'M' -> ()
  | 'X' ->
      Buffer.add_string b
        (Printf.sprintf ", \"ts\": %.3f, \"dur\": %.3f" e.e_ts_us (Float.max 0.0 e.e_dur_us))
  | _ -> Buffer.add_string b (Printf.sprintf ", \"ts\": %.3f, \"s\": \"t\"" e.e_ts_us));
  if e.e_args <> [] then Buffer.add_string b (Printf.sprintf ", \"args\": {%s}" (args_json e.e_args));
  Buffer.add_char b '}';
  Buffer.contents b

let chrome_json_of ?(clock = "host") evs =
  let n = List.length evs in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\": [\n";
  List.iteri
    (fun i e ->
      Buffer.add_string b "  ";
      Buffer.add_string b (event_json e);
      if i < n - 1 then Buffer.add_char b ',';
      Buffer.add_char b '\n')
    evs;
  Buffer.add_string b
    (Printf.sprintf
       "], \"displayTimeUnit\": \"ms\", \"otherData\": {\"producer\": \"siesta\", \"clock\": \"%s\", \
        \"run_id\": \"%s\"}}\n"
       (escape clock)
       (escape (Run_id.get ())));
  Buffer.contents b

let to_chrome_json () =
  let evs = Mutex.protect lock (fun () -> List.rev !events) in
  chrome_json_of ~clock:"host" evs

let write ~path =
  let oc = open_out path in
  output_string oc (to_chrome_json ());
  close_out oc

module Counters = Siesta_perf.Counters

type t = {
  nranks : int;
  streams : Event.t array array;
  centroids : (Counters.t * int) array;
}

type packed = {
  p_nranks : int;
  p_defs : Event.t array;
  p_codes : Soa.buf array;
  p_centroids : (Counters.t * int) array;
}

let centroids_of_recorder recorder =
  let table = Recorder.compute_table recorder in
  Array.init (Compute_table.cluster_count table) (fun cid ->
      (Compute_table.centroid table cid, Compute_table.members table cid))

let of_recorder recorder =
  let nranks = Recorder.nranks recorder in
  {
    nranks;
    streams = Array.init nranks (Recorder.events recorder);
    centroids = centroids_of_recorder recorder;
  }

let pack recorder =
  let nranks = Recorder.nranks recorder in
  match Recorder.mode recorder with
  | Recorder.Streamed ->
      {
        p_nranks = nranks;
        p_defs = Recorder.event_defs recorder;
        p_codes = Array.init nranks (Recorder.codes recorder);
        p_centroids = centroids_of_recorder recorder;
      }
  | Recorder.Boxed ->
      let intern = Soa.Intern.create () in
      let p_codes =
        Array.init nranks (fun r ->
            let evs = Recorder.events recorder r in
            let b = Soa.create ~capacity:(Array.length evs) () in
            Array.iter (fun ev -> Soa.append b (Soa.Intern.intern intern ev)) evs;
            b)
      in
      {
        p_nranks = nranks;
        p_defs = Soa.Intern.defs intern;
        p_codes;
        p_centroids = centroids_of_recorder recorder;
      }

let of_packed p =
  {
    nranks = p.p_nranks;
    streams =
      Array.map
        (fun codes ->
          Array.init (Soa.length codes) (fun i -> p.p_defs.(Soa.unsafe_get codes i)))
        p.p_codes;
    centroids = p.p_centroids;
  }

let to_packed t =
  let intern = Soa.Intern.create () in
  let p_codes =
    Array.map
      (fun evs ->
        let b = Soa.create ~capacity:(max 16 (Array.length evs)) () in
        Array.iter (fun ev -> Soa.append b (Soa.Intern.intern intern ev)) evs;
        b)
      t.streams
  in
  {
    p_nranks = t.nranks;
    p_defs = Soa.Intern.defs intern;
    p_codes;
    p_centroids = t.centroids;
  }

let compute_table t = Compute_table.restore t.centroids
let packed_compute_table p = Compute_table.restore p.p_centroids
let packed_total_events p = Array.fold_left (fun acc b -> acc + Soa.length b) 0 p.p_codes

(* ------------------------------------------------------------------ *)
(* Text format (v2): the layout of the SoA representation — the distinct
   event definitions once, then per-rank code chunks of at most
   [chunk_codes] codes per line, so both writer and reader work in
   bounded batches without materializing boxed events. *)

let chunk_codes = 8192

let centroid_lines buf centroids =
  Array.iteri
    (fun cid (c, members) ->
      let a = Counters.to_array c in
      Printf.ksprintf (Buffer.add_string buf)
        "%d %.17g %.17g %.17g %.17g %.17g %.17g %d\n" cid a.(0) a.(1) a.(2) a.(3) a.(4) a.(5)
        members)
    centroids

let to_string_packed pk =
  let buf = Buffer.create 65536 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "siesta-trace v2\n";
  p "nranks %d\n" pk.p_nranks;
  p "compute-table %d\n" (Array.length pk.p_centroids);
  centroid_lines buf pk.p_centroids;
  p "events %d\n" (Array.length pk.p_defs);
  Array.iter
    (fun ev ->
      Buffer.add_string buf (Event.to_key ev);
      Buffer.add_char buf '\n')
    pk.p_defs;
  Array.iteri
    (fun rank codes ->
      let n = Soa.length codes in
      p "rank %d %d\n" rank n;
      let i = ref 0 in
      while !i < n do
        let len = min chunk_codes (n - !i) in
        p "chunk %d\n" len;
        for j = !i to !i + len - 1 do
          if j > !i then Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int (Soa.unsafe_get codes j))
        done;
        Buffer.add_char buf '\n';
        i := !i + len
      done)
    pk.p_codes;
  Buffer.contents buf

(* Corrupt or truncated input must surface as [Failure "Trace_io: …"],
   never as a leaked [Scanf.Scan_failure] / [End_of_file] /
   [Invalid_argument] from the innards of the parser — callers (the CLI,
   the artifact store's cache-miss fallback) match on [Failure] to turn
   damage into a clean diagnostic. *)
let wrap_parse parse =
  try parse () with
  | Failure msg when String.length msg >= 9 && String.sub msg 0 9 = "Trace_io:" ->
      failwith msg
  | Scanf.Scan_failure msg -> failwith (Printf.sprintf "Trace_io: malformed line (%s)" msg)
  | End_of_file | Failure _ | Invalid_argument _ ->
      failwith "Trace_io: truncated or corrupt trace file"

let parse_header next =
  let nranks = Scanf.sscanf (next ()) "nranks %d" Fun.id in
  if nranks <= 0 then failwith "Trace_io: bad rank count";
  let n_clusters = Scanf.sscanf (next ()) "compute-table %d" Fun.id in
  if n_clusters < 0 then failwith "Trace_io: bad cluster count";
  let centroids =
    Array.init n_clusters (fun expect ->
        Scanf.sscanf (next ()) "%d %g %g %g %g %g %g %d"
          (fun cid a b c d e f members ->
            if cid <> expect then failwith "Trace_io: cluster ids out of order";
            (Counters.of_array [| a; b; c; d; e; f |], members)))
  in
  (nranks, centroids)

let parse_v2 next =
  let p_nranks, p_centroids = parse_header next in
  let n_defs = Scanf.sscanf (next ()) "events %d" Fun.id in
  if n_defs < 0 then failwith "Trace_io: bad event-definition count";
  let p_defs = Array.init n_defs (fun _ -> Event.of_key (next ())) in
  let p_codes =
    Array.init p_nranks (fun expect ->
        let total =
          Scanf.sscanf (next ()) "rank %d %d" (fun r n ->
              if r <> expect then failwith "Trace_io: ranks out of order";
              if n < 0 then failwith "Trace_io: bad event count";
              n)
        in
        let b = Soa.create ~capacity:(max 16 total) () in
        while Soa.length b < total do
          let declared = Scanf.sscanf (next ()) "chunk %d" Fun.id in
          if declared <= 0 then failwith "Trace_io: bad chunk length";
          if Soa.length b + declared > total then
            failwith
              (Printf.sprintf "Trace_io: chunk overruns rank %d (declared %d codes, %d expected)"
                 expect declared (total - Soa.length b));
          let line = next () in
          let got = ref 0 in
          String.split_on_char ' ' line
          |> List.iter (fun tok ->
                 if tok <> "" then begin
                   let code =
                     match int_of_string_opt tok with
                     | Some c -> c
                     | None -> failwith (Printf.sprintf "Trace_io: bad event code %S" tok)
                   in
                   if code < 0 || code >= n_defs then
                     failwith
                       (Printf.sprintf "Trace_io: event code %d out of range (0..%d)" code
                          (n_defs - 1));
                   Soa.append b code;
                   incr got
                 end);
          if !got <> declared then
            failwith
              (Printf.sprintf "Trace_io: truncated chunk in rank %d (declared %d codes, got %d)"
                 expect declared !got)
        done;
        b)
  in
  { p_nranks; p_defs; p_codes; p_centroids }

let of_string_packed s =
  wrap_parse @@ fun () ->
  if String.length s >= 4 && String.sub s 0 4 = "SSB1" then
    failwith
      "Trace_io: binary siesta store blob (decode it with the store codec, not the text loader)";
  let lines = ref (String.split_on_char '\n' s) in
  let next () =
    match !lines with
    | [] -> failwith "Trace_io: unexpected end of file"
    | l :: rest ->
        lines := rest;
        l
  in
  match next () with
  | "siesta-trace v2" -> parse_v2 next
  | "siesta-trace v1" ->
      failwith "Trace_io: siesta-trace v1 is no longer read (re-dump with `siesta trace --dump`)"
  | _ -> failwith "Trace_io: bad magic or version"

let save_packed pk ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string_packed pk))

let load_packed ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string_packed (really_input_string ic (in_channel_length ic)))

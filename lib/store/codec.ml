module Trace_io = Siesta_trace.Trace_io
module Event = Siesta_trace.Event
module Counters = Siesta_perf.Counters
module Grammar = Siesta_grammar.Grammar
module Merged = Siesta_merge.Merged
module Rank_list = Siesta_merge.Rank_list
module Proxy_ir = Siesta_synth.Proxy_ir
module Shrink = Siesta_synth.Shrink
module Linreg = Siesta_numerics.Linreg

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* v2: trace blobs switched from boxed per-rank event streams to the
   struct-of-arrays layout (definition table + chunked dense-code
   streams).  Cached v1 blobs fail the version check and degrade to a
   cache miss — the store re-encodes on the next run. *)
let schema_version = 2
let magic = "SSB1"
let float_repr f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

(* ------------------------------------------------------------------ *)
(* Wire primitives *)

module Wire = struct
  type writer = Buffer.t
  type reader = { s : string; mutable pos : int }

  let writer () = Buffer.create 4096
  let contents = Buffer.contents
  let reader s = { s; pos = 0 }
  let at_end r = r.pos = String.length r.s

  let need r n =
    if r.pos + n > String.length r.s then
      corrupt "truncated input (need %d bytes at offset %d of %d)" n r.pos
        (String.length r.s)

  (* Unsigned LEB128 over the zigzag transform: any 63-bit OCaml int
     round-trips, small magnitudes (positive or negative) stay short. *)
  let w_varint b i =
    let u = (i lsl 1) lxor (i asr (Sys.int_size - 1)) in
    let rec go u =
      if u land lnot 0x7f = 0 then Buffer.add_char b (Char.chr (u land 0x7f))
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (u land 0x7f)));
        go (u lsr 7)
      end
    in
    go u

  let r_varint r =
    let rec go shift acc =
      if shift > Sys.int_size then corrupt "varint too long at offset %d" r.pos;
      need r 1;
      let c = Char.code (String.unsafe_get r.s r.pos) in
      r.pos <- r.pos + 1;
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then acc else go (shift + 7) acc
    in
    let u = go 0 0 in
    (u lsr 1) lxor (- (u land 1))

  let w_int64_le b v =
    for i = 0 to 7 do
      Buffer.add_char b
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
    done

  let r_int64_le r =
    need r 8;
    let v = ref 0L in
    for i = 7 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code (String.unsafe_get r.s (r.pos + i))))
    done;
    r.pos <- r.pos + 8;
    !v

  let w_float b f = w_int64_le b (Int64.bits_of_float f)
  let r_float r = Int64.float_of_bits (r_int64_le r)

  let w_string b s =
    w_varint b (String.length s);
    Buffer.add_string b s

  let r_string r =
    let n = r_varint r in
    if n < 0 then corrupt "negative string length at offset %d" r.pos;
    need r n;
    let s = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    s
end

open Wire

(* Length-checked counts: every repeated structure is preceded by a
   count that must be sane before we Array.init over it.  Each counted
   element takes at least one payload byte, so a count above the bytes
   left is forged or truncated, and a blob of n bytes never makes a
   decoder allocate for more than n elements. *)
let r_count r what =
  let n = r_varint r in
  if n < 0 || n > String.length r.s - r.pos then corrupt "implausible %s count %d" what n;
  n

(* ------------------------------------------------------------------ *)
(* Framing *)

let frame ~kind payload =
  let b = writer () in
  Buffer.add_string b magic;
  w_varint b schema_version;
  w_string b kind;
  w_varint b (String.length payload);
  Buffer.add_string b payload;
  let body = contents b in
  let b2 = Buffer.create (String.length body + 8) in
  Buffer.add_string b2 body;
  w_int64_le b2 (Hash.fnv64 body);
  Buffer.contents b2

(* The magic is checked before the checksum, so a file that is not a
   blob at all (a text file, a JSON trace) is named as such rather than
   reported as a damaged one. *)
let unframe blob =
  let len = String.length blob in
  if len < String.length magic + 8 then corrupt "blob too short (%d bytes)" len;
  let m = String.sub blob 0 (String.length magic) in
  if m <> magic then corrupt "bad magic %S" m;
  let body = String.sub blob 0 (len - 8) in
  let stored =
    let r = reader (String.sub blob (len - 8) 8) in
    r_int64_le r
  in
  if not (Int64.equal stored (Hash.fnv64 body)) then
    corrupt "checksum mismatch (stored %Lx, computed %Lx)" stored (Hash.fnv64 body);
  let r = reader body in
  r.pos <- String.length magic;
  let v = r_varint r in
  if v <> schema_version then
    corrupt "schema version mismatch (blob v%d, runtime v%d)" v schema_version;
  let kind = r_string r in
  let n = r_varint r in
  if n < 0 || r.pos + n <> String.length body then
    corrupt "payload length %d does not match frame" n;
  (kind, String.sub body r.pos n)

(* ------------------------------------------------------------------ *)
(* Shared sub-codecs *)

let w_event_key b ev = w_string b (Event.to_key ev)

let r_event r =
  let key = r_string r in
  match Event.of_key key with
  | ev -> ev
  | exception Failure m -> corrupt "bad event key %S: %s" key m

(* A rule or main entry: the symbol's {!Grammar.symbol_code}, then its
   repetition count.  The reader hands both to [make] with the reader
   itself, so a main entry can read its rank list next; each [make]
   below is closed, so reading an entry allocates only its result. *)
let w_entry b sym reps =
  w_varint b (Grammar.symbol_code sym);
  w_varint b reps

let r_entry r make =
  let code = r_varint r in
  if code < 0 then corrupt "negative symbol code";
  let reps = r_varint r in
  if reps < 1 then corrupt "non-positive repetition count %d" reps;
  make r (Grammar.symbol_of_code code) reps

let w_rule b (rule : Grammar.rule) =
  w_varint b (List.length rule);
  List.iter (fun { Grammar.sym; reps } -> w_entry b sym reps) rule

let r_rule r : Grammar.rule =
  List.init (r_count r "rule entry") (fun _ ->
      r_entry r (fun _ sym reps -> { Grammar.sym; reps }))

let w_rank_list b rl =
  let ranks = Rank_list.to_list rl in
  w_varint b (List.length ranks);
  (* delta-encoded: ascending lists of near-contiguous ranks are tiny *)
  ignore
    (List.fold_left
       (fun prev rank ->
         w_varint b (rank - prev);
         rank)
       0 ranks)

let r_rank_list r =
  let n = r_count r "rank list" in
  let prev = ref 0 in
  let ranks =
    List.init n (fun _ ->
        let rank = !prev + r_varint r in
        prev := rank;
        rank)
  in
  Rank_list.of_list ranks

let w_merged b (m : Merged.t) =
  w_varint b m.Merged.nranks;
  w_varint b (Array.length m.Merged.terminals);
  Array.iter (w_event_key b) m.Merged.terminals;
  w_varint b (Array.length m.Merged.rules);
  Array.iter (w_rule b) m.Merged.rules;
  w_varint b (Array.length m.Merged.mains);
  Array.iter
    (fun entries ->
      w_varint b (List.length entries);
      List.iter
        (fun { Merged.sym; reps; ranks } ->
          w_entry b sym reps;
          w_rank_list b ranks)
        entries)
    m.Merged.mains;
  w_varint b (Array.length m.Merged.main_ranks);
  Array.iter (w_rank_list b) m.Merged.main_ranks

let r_merged r : Merged.t =
  (* the main rank lists name every rank, so a rank count above the
     bytes left is forged too *)
  let nranks = r_count r "rank" in
  if nranks = 0 then corrupt "non-positive nranks %d" nranks;
  let nterms = r_count r "terminal" in
  let terminals = Array.init nterms (fun _ -> r_event r) in
  let nrules = r_count r "rule" in
  let rules = Array.init nrules (fun _ -> r_rule r) in
  let nmains = r_count r "main" in
  let mains =
    Array.init nmains (fun _ ->
        let n = r_count r "main entry" in
        List.init n (fun _ ->
            r_entry r (fun r sym reps -> { Merged.sym; reps; ranks = r_rank_list r })))
  in
  let nmr = r_count r "main rank-list" in
  let main_ranks = Array.init nmr (fun _ -> r_rank_list r) in
  { Merged.nranks; terminals; rules; mains; main_ranks }

(* ------------------------------------------------------------------ *)
(* Trace *)

type trace_meta = {
  tm_original_elapsed : float;
  tm_instrumented_elapsed : float;
  tm_original_calls : int;
  tm_instrumented_calls : int;
  tm_total_events : int;
  tm_raw_bytes : int;
}

let meta_overhead m =
  if m.tm_original_elapsed = 0.0 then 0.0
  else (m.tm_instrumented_elapsed -. m.tm_original_elapsed) /. m.tm_original_elapsed

(* Codes per chunk of a serialized stream.  Encoding walks the SoA
   buffers directly and decoding appends into fresh SoA buffers chunk by
   chunk, so neither side ever materializes a boxed event stream and the
   working set per rank is one chunk of varints. *)
let trace_chunk_codes = 65536

let encode_trace ~meta (pk : Trace_io.packed) =
  let b = writer () in
  w_float b meta.tm_original_elapsed;
  w_float b meta.tm_instrumented_elapsed;
  w_varint b meta.tm_original_calls;
  w_varint b meta.tm_instrumented_calls;
  w_varint b meta.tm_total_events;
  w_varint b meta.tm_raw_bytes;
  w_varint b pk.Trace_io.p_nranks;
  w_varint b (Array.length pk.Trace_io.p_centroids);
  Array.iter
    (fun (c, members) ->
      Array.iter (w_float b) (Counters.to_array c);
      w_varint b members)
    pk.Trace_io.p_centroids;
  (* The definition table holds each distinct event once (as its text
     key, in code order); streams are varint codes into it.  SPMD traces
     repeat a handful of relative-rank-encoded events millions of times,
     so this is the difference between O(trace) and O(distinct events)
     text — and with the SoA representation the codes already exist. *)
  w_varint b (Array.length pk.Trace_io.p_defs);
  Array.iter (w_event_key b) pk.Trace_io.p_defs;
  w_varint b (Array.length pk.Trace_io.p_codes);
  Array.iter
    (fun codes ->
      let n = Siesta_trace.Soa.length codes in
      w_varint b n;
      let i = ref 0 in
      while !i < n do
        let len = min trace_chunk_codes (n - !i) in
        w_varint b len;
        for j = !i to !i + len - 1 do
          w_varint b (Siesta_trace.Soa.unsafe_get codes j)
        done;
        i := !i + len
      done)
    pk.Trace_io.p_codes;
  frame ~kind:"trace" (contents b)

let decode_trace blob =
  let kind, payload = unframe blob in
  if kind <> "trace" then corrupt "expected a trace blob, got %S" kind;
  let r = reader payload in
  let tm_original_elapsed = r_float r in
  let tm_instrumented_elapsed = r_float r in
  let tm_original_calls = r_varint r in
  let tm_instrumented_calls = r_varint r in
  let tm_total_events = r_varint r in
  let tm_raw_bytes = r_varint r in
  let nranks = r_varint r in
  if nranks <= 0 then corrupt "non-positive nranks %d" nranks;
  let ncentroids = r_count r "centroid" in
  let centroids =
    Array.init ncentroids (fun _ ->
        let a = Array.init 6 (fun _ -> r_float r) in
        let members = r_varint r in
        (Counters.of_array a, members))
  in
  let ndefs = r_count r "event definition" in
  let defs = Array.init ndefs (fun _ -> r_event r) in
  let nstreams = r_count r "stream" in
  if nstreams <> nranks then corrupt "stream count %d <> nranks %d" nstreams nranks;
  let p_codes =
    Array.init nstreams (fun rank ->
        let total = r_count r "event" in
        let buf = Siesta_trace.Soa.create ~capacity:(max 16 total) () in
        while Siesta_trace.Soa.length buf < total do
          let len = r_varint r in
          if len <= 0 then corrupt "bad chunk length %d in stream %d" len rank;
          if Siesta_trace.Soa.length buf + len > total then
            corrupt "chunk overruns stream %d (%d codes declared, %d expected)" rank len
              (total - Siesta_trace.Soa.length buf);
          for _ = 1 to len do
            let code = r_varint r in
            if code < 0 || code >= ndefs then
              corrupt "event code %d out of range in stream %d" code rank;
            Siesta_trace.Soa.append buf code
          done
        done;
        buf)
  in
  if not (at_end r) then corrupt "trailing bytes after trace payload";
  ( {
      tm_original_elapsed;
      tm_instrumented_elapsed;
      tm_original_calls;
      tm_instrumented_calls;
      tm_total_events;
      tm_raw_bytes;
    },
    {
      Trace_io.p_nranks = nranks;
      p_defs = defs;
      p_codes;
      p_centroids = centroids;
    } )

(* ------------------------------------------------------------------ *)
(* Merged program *)

let encode_merged m =
  let b = writer () in
  w_merged b m;
  frame ~kind:"merged" (contents b)

(* A payload that parses can still name what the pipeline cannot walk
   (a rule or terminal out of range, an uncovered rank); such a blob is
   as corrupt as a truncated one. *)
let validated what check x =
  match check x with
  | () -> x
  | exception Invalid_argument msg -> corrupt "invalid %s: %s" what msg

let decode_merged blob =
  let kind, payload = unframe blob in
  if kind <> "merged" then corrupt "expected a merged blob, got %S" kind;
  let r = reader payload in
  let m = r_merged r in
  if not (at_end r) then corrupt "trailing bytes after merged payload";
  validated "merged grammar" Merged.validate m

(* ------------------------------------------------------------------ *)
(* Proxy / QP solution *)

let encode_proxy (p : Proxy_ir.t) =
  let b = writer () in
  w_merged b p.Proxy_ir.merged;
  w_varint b (Array.length p.Proxy_ir.combos);
  Array.iter
    (fun row ->
      w_varint b (Array.length row);
      Array.iter (w_float b) row)
    p.Proxy_ir.combos;
  w_varint b (Array.length p.Proxy_ir.combo_errors);
  Array.iter (w_float b) p.Proxy_ir.combo_errors;
  let sh = p.Proxy_ir.shrink in
  w_float b (Shrink.factor sh);
  let reg = Shrink.regression sh in
  w_float b reg.Linreg.slope;
  w_float b reg.Linreg.intercept;
  w_string b p.Proxy_ir.generated_on;
  frame ~kind:"proxy" (contents b)

let decode_proxy blob =
  let kind, payload = unframe blob in
  if kind <> "proxy" then corrupt "expected a proxy blob, got %S" kind;
  let r = reader payload in
  let merged = r_merged r in
  let ncombos = r_count r "combo" in
  let combos =
    Array.init ncombos (fun _ ->
        let n = r_count r "combo column" in
        Array.init n (fun _ -> r_float r))
  in
  let nerr = r_count r "combo error" in
  let combo_errors = Array.init nerr (fun _ -> r_float r) in
  let factor = r_float r in
  let slope = r_float r in
  let intercept = r_float r in
  let generated_on = r_string r in
  if not (at_end r) then corrupt "trailing bytes after proxy payload";
  validated "proxy" Proxy_ir.validate
    {
      Proxy_ir.merged;
      combos;
      combo_errors;
      shrink = Shrink.of_parts ~factor ~regression:{ Linreg.slope; intercept };
      generated_on;
    }

(* ------------------------------------------------------------------ *)
(* Run-ledger records.  The payload is a UTF-8 JSON document (the ledger
   versions its own field layout inside the document); the frame adds
   the magic, store schema version and checksum, so `store verify`
   vets ledger records with the same machinery as stage artifacts. *)

let encode_run payload = frame ~kind:"run" payload

let decode_run blob =
  let kind, payload = unframe blob in
  if kind <> "run" then corrupt "expected a run record, got %S" kind;
  payload

(* Server artifacts (generated C, markdown reports, JSON verdicts, HTML
   dashboards) are plain text, but they live in the same store as stage
   blobs, so they get the same framing — `store verify` vets them with
   no special case. *)

let encode_text payload = frame ~kind:"text" payload

let decode_text blob =
  let kind, payload = unframe blob in
  if kind <> "text" then corrupt "expected a text artifact, got %S" kind;
  payload

(* Tests for siesta_store (hashing, binary codec, content-addressed
   store) and the incremental pipeline cache built on top of it. *)

module Hash = Siesta_store.Hash
module Codec = Siesta_store.Codec
module Store = Siesta_store.Store
module Cache = Siesta.Cache
module Pipeline = Siesta.Pipeline
module Metrics = Siesta_obs.Metrics
module Trace_io = Siesta_trace.Trace_io
module Merged = Siesta_merge.Merged
module Proxy_ir = Siesta_synth.Proxy_ir
module Codegen_c = Siesta_synth.Codegen_c
module Counters = Siesta_perf.Counters

let small_spec ?(workload = "CG") ?(nranks = 8) ?(seed = 42) () =
  Pipeline.spec ~iters:3 ~seed ~workload ~nranks ()

(* A fresh, empty store rooted in a temp directory. *)
let with_temp_store f =
  let root = Filename.temp_file "siesta_store" ".d" in
  Sys.remove root;
  let st = Store.open_ ~root () in
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      if Sys.file_exists root then rm root)
    (fun () -> f st)

(* ------------------------------------------------------------------ *)
(* Hash *)

let test_fnv64_vectors () =
  (* Published FNV-1a 64 test vectors. *)
  List.iter
    (fun (s, expect) ->
      Alcotest.(check string) (Printf.sprintf "fnv64 %S" s) expect (Hash.fnv64_hex s))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ]

let test_content_hash_shape () =
  let h = Hash.content_hash "hello" in
  Alcotest.(check int) "32 hex chars" 32 (String.length h);
  Alcotest.(check bool) "hex" true (Hash.is_hex h);
  Alcotest.(check bool) "stable" true (String.equal h (Hash.content_hash "hello"));
  Alcotest.(check bool) "differs" false (String.equal h (Hash.content_hash "hello!"));
  Alcotest.(check bool) "not hex" false (Hash.is_hex "xyz")

(* ------------------------------------------------------------------ *)
(* Wire primitives *)

let test_varint_roundtrip () =
  let open Codec.Wire in
  let cases =
    [ 0; 1; -1; 2; -2; 63; 64; 127; 128; 300; -300; 1 lsl 40; -(1 lsl 40); max_int; min_int ]
  in
  let w = writer () in
  List.iter (w_varint w) cases;
  let r = reader (contents w) in
  List.iter
    (fun expect -> Alcotest.(check int) (string_of_int expect) expect (r_varint r))
    cases;
  Alcotest.(check bool) "consumed" true (at_end r)

let prop_varint_roundtrip =
  QCheck.Test.make ~count:500 ~name:"varints round-trip"
    QCheck.(int)
    (fun i ->
      let open Codec.Wire in
      let w = writer () in
      w_varint w i;
      let r = reader (contents w) in
      r_varint r = i && at_end r)

let test_float_roundtrip_bitexact () =
  let open Codec.Wire in
  let cases =
    [ 0.0; -0.0; 1.5; -1.5; Float.pi; infinity; neg_infinity; nan; 1e-300; 0.1 +. 0.2 ]
  in
  List.iter
    (fun f ->
      let w = writer () in
      w_float w f;
      let r = reader (contents w) in
      let f' = r_float r in
      Alcotest.(check int64)
        (Printf.sprintf "%h" f)
        (Int64.bits_of_float f) (Int64.bits_of_float f'))
    cases

let test_string_roundtrip () =
  let open Codec.Wire in
  let w = writer () in
  w_string w "";
  w_string w "hello\nworld\000binary";
  let r = reader (contents w) in
  Alcotest.(check string) "empty" "" (r_string r);
  Alcotest.(check string) "binary" "hello\nworld\000binary" (r_string r);
  Alcotest.(check bool) "consumed" true (at_end r)

(* ------------------------------------------------------------------ *)
(* Framing *)

let test_frame_roundtrip () =
  let blob = Codec.frame ~kind:"widget" "payload bytes" in
  let kind, payload = Codec.unframe blob in
  Alcotest.(check string) "kind" "widget" kind;
  Alcotest.(check string) "payload" "payload bytes" payload

let corrupt_raises blob what =
  match Codec.unframe blob with
  | exception Codec.Corrupt _ -> ()
  | exception e -> Alcotest.failf "%s: leaked %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: accepted" what

let test_frame_rejects_damage () =
  let blob = Codec.frame ~kind:"t" "some payload, long enough to matter" in
  (* every truncation *)
  for len = 0 to String.length blob - 1 do
    corrupt_raises (String.sub blob 0 len) (Printf.sprintf "truncated to %d" len)
  done;
  (* every single-byte flip: the checksum covers the whole frame *)
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string blob in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
      corrupt_raises (Bytes.to_string b) (Printf.sprintf "byte %d flipped" i))
    blob;
  (* trailing garbage *)
  corrupt_raises (blob ^ "x") "trailing garbage"

let test_frame_rejects_schema_bump () =
  (* unframe demands the current version; pinning the constant makes a
     layout change bump it deliberately (cached blobs then miss) *)
  Alcotest.(check int) "schema is v2" 2 Codec.schema_version

(* ------------------------------------------------------------------ *)
(* Stage-artifact codecs *)

let traced_once =
  (* One real traced run, shared across tests (tracing is the slow part). *)
  lazy (Pipeline.trace (small_spec ()))

let meta_of traced =
  let open Siesta_mpi.Engine in
  {
    Codec.tm_original_elapsed = traced.Pipeline.original.elapsed;
    tm_instrumented_elapsed = traced.Pipeline.instrumented.elapsed;
    tm_original_calls = 123;
    tm_instrumented_calls = 456;
    tm_total_events = Siesta_trace.Recorder.total_events traced.Pipeline.recorder;
    tm_raw_bytes = 7890;
  }

let test_codec_trace_roundtrip () =
  let traced = Lazy.force traced_once in
  let pk = Trace_io.pack traced.Pipeline.recorder in
  let meta = meta_of traced in
  let blob = Codec.encode_trace ~meta pk in
  Alcotest.(check string) "kind" "trace" (fst (Codec.unframe blob));
  let meta', pk' = Codec.decode_trace blob in
  Alcotest.(check bool) "meta" true (meta = meta');
  Alcotest.(check int) "nranks" pk.Trace_io.p_nranks pk'.Trace_io.p_nranks;
  Alcotest.(check bool) "defs" true (pk.Trace_io.p_defs = pk'.Trace_io.p_defs);
  let t = Trace_io.of_packed pk and t' = Trace_io.of_packed pk' in
  Alcotest.(check bool) "streams" true (t.Trace_io.streams = t'.Trace_io.streams);
  Alcotest.(check bool) "centroids bit-exact" true
    (Array.for_all2
       (fun (c, m) (c', m') ->
         m = m'
         && Array.for_all2
              (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
              (Counters.to_array c) (Counters.to_array c'))
       t.Trace_io.centroids t'.Trace_io.centroids)

let prop_codec_trace_roundtrip =
  QCheck.Test.make ~count:40 ~name:"random traces round-trip through the binary codec"
    (QCheck.make
       ~print:(fun (t : Trace_io.t) -> Printf.sprintf "%d ranks" t.Trace_io.nranks)
       QCheck.Gen.(
         let* nranks = 1 -- 5 in
         let* streams =
           array_size (return nranks) (array_size (0 -- 30) Test_trace.random_event_gen)
         in
         let* centroids =
           array_size (0 -- 6)
             (let* a = array_size (return 6) (float_bound_inclusive 1e9) in
              let* members = 1 -- 500 in
              return (Counters.of_array a, members))
         in
         return { Trace_io.nranks; streams; centroids }))
    (fun t ->
      let meta =
        {
          Codec.tm_original_elapsed = 1.0;
          tm_instrumented_elapsed = 1.01;
          tm_original_calls = 10;
          tm_instrumented_calls = 11;
          tm_total_events = 12;
          tm_raw_bytes = 13;
        }
      in
      let meta', pk' = Codec.decode_trace (Codec.encode_trace ~meta (Trace_io.to_packed t)) in
      let t' = Trace_io.of_packed pk' in
      meta = meta'
      && t'.Trace_io.streams = t.Trace_io.streams
      && Array.for_all2
           (fun (c, m) (c', m') ->
             m = m'
             && Array.for_all2
                  (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
                  (Counters.to_array c) (Counters.to_array c'))
           t.Trace_io.centroids t'.Trace_io.centroids)

let test_codec_trace_rejects_corruption () =
  let traced = Lazy.force traced_once in
  let pk = Trace_io.pack traced.Pipeline.recorder in
  let blob = Codec.encode_trace ~meta:(meta_of traced) pk in
  (* a few representative truncations — full sweep is the frame test *)
  List.iter
    (fun len ->
      match Codec.decode_trace (String.sub blob 0 len) with
      | exception Codec.Corrupt _ -> ()
      | exception e -> Alcotest.failf "leaked %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "accepted truncated blob")
    [ 0; 4; String.length blob / 2; String.length blob - 1 ];
  (* wrong kind: a merged blob fed to decode_trace *)
  let m = Codec.frame ~kind:"merged" "zz" in
  match Codec.decode_trace m with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "accepted wrong-kind blob"

let rejects_with ~needle what blob =
  match Codec.decode_trace blob with
  | exception Codec.Corrupt msg ->
      Alcotest.(check bool) (Printf.sprintf "%s: %s names %S" what msg needle) true
        (Test_comm_check.contains_substring ~needle msg)
  | exception e -> Alcotest.failf "%s: leaked %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: accepted" what

(* A well-framed trace payload with a valid checksum whose run
   measurements and rank count are followed by [rest]. *)
let forged_trace rest =
  let open Codec.Wire in
  let w = writer () in
  w_float w 1.0;
  w_float w 1.0;
  List.iter (w_varint w) [ 1; 1; 1; 1; 1 ];
  rest w;
  Codec.frame ~kind:"trace" (contents w)

(* Each blob's first counted element decodes, so only the count check
   keeps the decoder from allocating for 2^30 elements. *)
let test_codec_rejects_forged_counts () =
  let open Codec.Wire in
  let centroids =
    forged_trace (fun w ->
        w_varint w ((1 lsl 30) - 1);
        for _ = 1 to 6 do
          w_float w 1.0
        done;
        w_varint w 1)
  in
  let codes =
    forged_trace (fun w ->
        w_varint w 0;
        w_varint w 1;
        w_string w (Siesta_trace.Event.to_key (Siesta_trace.Event.Compute 0));
        w_varint w 1;
        w_varint w (1 lsl 30);
        w_varint w 1;
        w_varint w 0)
  in
  List.iter
    (fun (what, blob) ->
      Alcotest.(check bool) (what ^ " blob under 100 bytes") true (String.length blob < 100);
      rejects_with ~needle:"count" what blob)
    [ ("2^30-1 centroids", centroids); ("one stream of 2^30 codes", codes) ]

(* A file that is not a blob, such as a text dump, is named by its
   magic rather than reported as a damaged blob. *)
let test_codec_names_foreign_magic () =
  rejects_with ~needle:"magic" "text file"
    "siesta-trace v2\nnranks 1\ncompute-table 0\nevents 0\nrank 0 0\n"

let merged_of sy = sy.Pipeline.sy_proxy.Proxy_ir.merged
let synthesis_once = lazy (Pipeline.synthesize (Lazy.force traced_once))

let test_codec_merged_roundtrip () =
  let sy = Lazy.force synthesis_once in
  let m = merged_of sy in
  let m' = Codec.decode_merged (Codec.encode_merged m) in
  Alcotest.(check bool) "Merged.equal" true (Merged.equal m m');
  Merged.validate m'

let test_codec_proxy_roundtrip () =
  let sy = Lazy.force synthesis_once in
  let p = sy.Pipeline.sy_proxy in
  let p' = Codec.decode_proxy (Codec.encode_proxy p) in
  Alcotest.(check bool) "merged" true (Merged.equal p.Proxy_ir.merged p'.Proxy_ir.merged);
  Alcotest.(check bool) "combos bit-exact" true
    (Array.for_all2
       (fun a b ->
         Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b)
       p.Proxy_ir.combos p'.Proxy_ir.combos);
  Alcotest.(check string) "generated_on" p.Proxy_ir.generated_on p'.Proxy_ir.generated_on;
  (* the property the cache actually relies on *)
  Alcotest.(check string) "byte-identical C" (Codegen_c.generate p) (Codegen_c.generate p')

(* ------------------------------------------------------------------ *)
(* Decoders reject what the pipeline cannot walk.  The frame checksum
   catches accidents, not a payload that parses yet names a rule or
   terminal out of range or leaves a rank uncovered; the decoders
   validate what they build, so such a blob raises [Corrupt] too. *)

module Grammar = Siesta_grammar.Grammar
module Rank_list = Siesta_merge.Rank_list
module Event = Siesta_trace.Event

let cg4 = lazy (Pipeline.synthesize (Pipeline.trace (Pipeline.spec ~workload:"CG" ~nranks:4 ())))

let rejects ~needle what decode blob =
  match decode blob with
  | exception Codec.Corrupt msg ->
      Alcotest.(check bool) (Printf.sprintf "%s: %s names %S" what msg needle) true
        (Test_comm_check.contains_substring ~needle msg)
  | exception e -> Alcotest.failf "%s: leaked %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: accepted" what

let test_decode_rejects_rule_ref_out_of_range () =
  let m = merged_of (Lazy.force cg4) in
  let rules = Array.copy m.Merged.rules in
  rules.(0) <- { Grammar.sym = Grammar.N (Array.length rules); reps = 1 } :: rules.(0);
  rejects ~needle:"rule reference" "rule ref past the table" Codec.decode_merged
    (Codec.encode_merged { m with Merged.rules })

let test_decode_rejects_terminal_out_of_range () =
  let m = merged_of (Lazy.force cg4) in
  let past = Grammar.T (Array.length m.Merged.terminals) in
  let mains = Array.copy m.Merged.mains in
  mains.(0) <-
    (match mains.(0) with
    | e :: rest -> { e with Merged.sym = past } :: rest
    | [] -> Alcotest.fail "empty main rule");
  rejects ~needle:"terminal id" "terminal id past the table in a main rule" Codec.decode_merged
    (Codec.encode_merged { m with Merged.mains });
  let rules = Array.copy m.Merged.rules in
  rules.(0) <- { Grammar.sym = past; reps = 1 } :: rules.(0);
  rejects ~needle:"terminal id" "terminal id past the table in a rule" Codec.decode_merged
    (Codec.encode_merged { m with Merged.rules })

let test_decode_rejects_uncovered_rank () =
  let m = merged_of (Lazy.force cg4) in
  let last = m.Merged.nranks - 1 in
  let main_ranks =
    Array.map
      (fun rl -> Rank_list.of_list (List.filter (( <> ) last) (Rank_list.to_list rl)))
      m.Merged.main_ranks
  in
  rejects ~needle:(Printf.sprintf "rank %d covered by 0" last) "uncovered last rank"
    Codec.decode_merged
    (Codec.encode_merged { m with Merged.main_ranks })

let test_decode_proxy_rejects_bad_combinations () =
  let p = (Lazy.force cg4).Pipeline.sy_proxy in
  let n = Array.length p.Proxy_ir.combos in
  let m = p.Proxy_ir.merged in
  let terminals = Array.append m.Merged.terminals [| Event.Compute n |] in
  rejects ~needle:"no combination" "compute cluster past the combinations" Codec.decode_proxy
    (Codec.encode_proxy { p with Proxy_ir.merged = { m with Merged.terminals } });
  let combos = Array.copy p.Proxy_ir.combos in
  combos.(0) <- Array.sub combos.(0) 0 (Array.length combos.(0) - 1);
  rejects ~needle:"entries" "short combination" Codec.decode_proxy
    (Codec.encode_proxy { p with Proxy_ir.combos })

(* 1-3 payload bytes of a CG@4 blob xor-ed with nonzero masks, then
   re-framed so the checksum holds.  Positions are drawn wide and
   reduced modulo the payload length when the blob is known. *)
let flips_arb =
  QCheck.make
    ~print:QCheck.Print.(list (pair int int))
    QCheck.Gen.(list_size (1 -- 3) (pair (0 -- 1_000_000) (1 -- 255)))

let reframe blob flips =
  let kind, payload = Codec.unframe blob in
  let b = Bytes.of_string payload in
  List.iter
    (fun (pos, mask) ->
      let i = pos mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask)))
    flips;
  Codec.frame ~kind (Bytes.to_string b)

(* Terminals that walking every rank visits, bounded above (each rank
   counted as walking every main entry), in floats so a flipped
   repetition cannot wrap it.  Decoding validated the grammar, so the
   rule graph is acyclic and every reference is in range. *)
let walk_bound m =
  let memo = Array.make (Array.length m.Merged.rules) (-1.0) in
  let rec sym_len = function
    | Grammar.T _ -> 1.0
    | Grammar.N i ->
        if memo.(i) < 0.0 then
          memo.(i) <-
            List.fold_left
              (fun acc { Grammar.sym; reps } -> acc +. (float_of_int reps *. sym_len sym))
              0.0 m.Merged.rules.(i);
        memo.(i)
  in
  let main_len =
    Array.fold_left
      (List.fold_left (fun acc { Merged.sym; reps; _ } -> acc +. (float_of_int reps *. sym_len sym)))
      0.0 m.Merged.mains
  in
  float_of_int m.Merged.nranks *. main_len

let cg4_merged_blob = lazy (Codec.encode_merged (merged_of (Lazy.force cg4)))
let cg4_proxy_blob = lazy (Codec.encode_proxy (Lazy.force cg4).Pipeline.sy_proxy)

(* A flipped repetition inside nested rules can make a valid grammar
   expand for hours, and the codec has no expansion-length bound yet: a
   decoded grammar more than 100x the original's walk is accepted
   unwalked.  The cap goes when the schema gains that bound. *)
let walk_cap = lazy (100.0 *. walk_bound (merged_of (Lazy.force cg4)))

let walk_every_rank m =
  if walk_bound m <= Lazy.force walk_cap then
    for rank = 0 to m.Merged.nranks - 1 do
      Merged.iter_rank ignore m rank
    done

let prop_flipped_merged =
  QCheck.Test.make ~count:2000
    ~name:"flipped merged blob: Corrupt, or every rank walks (qcheck)" flips_arb
    (fun flips ->
      match Codec.decode_merged (reframe (Lazy.force cg4_merged_blob) flips) with
      | exception Codec.Corrupt _ -> true
      | m ->
          walk_every_rank m;
          true)

let prop_flipped_proxy =
  QCheck.Test.make ~count:2000
    ~name:"flipped proxy blob: Corrupt, or every rank walks and the C prints (qcheck)"
    flips_arb (fun flips ->
      match Codec.decode_proxy (reframe (Lazy.force cg4_proxy_blob) flips) with
      | exception Codec.Corrupt _ -> true
      | p ->
          walk_every_rank p.Proxy_ir.merged;
          String.length (Codegen_c.generate p) > 0)

(* ------------------------------------------------------------------ *)
(* Store *)

let test_store_put_get_dedup () =
  with_temp_store @@ fun st ->
  let blob = Codec.frame ~kind:"t" "hello store" in
  let h = Store.put st blob in
  Alcotest.(check bool) "hash is content hash" true (String.equal h (Hash.content_hash blob));
  Alcotest.(check bool) "contains" true (Store.contains st h);
  Alcotest.(check (option string)) "get" (Some blob) (Store.get st h);
  Alcotest.(check string) "dedup: same hash" h (Store.put st blob);
  Alcotest.(check (option string)) "absent" None (Store.get st (String.make 32 '0'));
  Alcotest.(check bool) "size accounted" true (Store.size_bytes st >= String.length blob)

let object_path root h =
  Filename.concat (Filename.concat (Filename.concat root "objects") (String.sub h 0 2))
    (String.sub h 2 30)

let test_store_detects_disk_corruption () =
  with_temp_store @@ fun st ->
  let blob = Codec.frame ~kind:"t" "to be damaged" in
  let h = Store.put st blob in
  let path = object_path (Store.root st) h in
  let oc = open_out path in
  output_string oc "damaged bytes";
  close_out oc;
  Alcotest.(check (option string)) "mismatch treated as absent" None (Store.get st h);
  Alcotest.(check bool) "deleted for repair" false (Sys.file_exists path);
  let h' = Store.put st blob in
  Alcotest.(check string) "re-put repairs" h h';
  Alcotest.(check (option string)) "healthy again" (Some blob) (Store.get st h)

let test_store_manifest_bind_resolve_rm () =
  with_temp_store @@ fun st ->
  let blob = Codec.frame ~kind:"t" "bound" in
  let h = Store.put st blob in
  Store.bind st ~key:(String.make 32 'a') ~hash:h ~kind:"t" ~descr:"first|x=1";
  Store.bind st ~key:(String.make 32 'b') ~hash:h ~kind:"t" ~descr:"second, with\ttab";
  Alcotest.(check (option string)) "resolve a" (Some h)
    (Store.resolve st ~key:(String.make 32 'a'));
  Alcotest.(check int) "two entries" 2 (List.length (Store.entries st));
  (* manifest survives a reopen, descr escaping included *)
  let st2 = Store.open_ ~root:(Store.root st) () in
  let e =
    List.find (fun e -> String.equal e.Store.e_key (String.make 32 'b')) (Store.entries st2)
  in
  Alcotest.(check string) "descr round-trips" "second, with\ttab" e.Store.e_descr;
  Alcotest.(check int) "rm by key prefix" 1 (Store.rm st2 "aaaa");
  Alcotest.(check (option string)) "binding gone" None
    (Store.resolve st2 ~key:(String.make 32 'a'));
  Alcotest.(check int) "rm by hash prefix" 1 (Store.rm st2 (String.sub h 0 8));
  Alcotest.(check int) "empty" 0 (List.length (Store.entries st2))

let test_store_verify () =
  with_temp_store @@ fun st ->
  let blob = Codec.frame ~kind:"t" "verified" in
  let h = Store.put st blob in
  Store.bind st ~key:(String.make 32 'c') ~hash:h ~kind:"t" ~descr:"d";
  let r = Store.verify st in
  Alcotest.(check int) "objects" 1 r.Store.v_objects;
  Alcotest.(check int) "entries" 1 r.Store.v_entries;
  Alcotest.(check (list string)) "healthy" [] r.Store.v_issues;
  (* flip a byte on disk: verify must flag it *)
  let path = object_path (Store.root st) h in
  let b = Bytes.of_string blob in
  Bytes.set b (Bytes.length b - 1) '\255';
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  let r = Store.verify st in
  Alcotest.(check bool) "damage reported" true (List.length r.Store.v_issues > 0)

let test_store_gc_sweeps_exactly_unreferenced () =
  with_temp_store @@ fun st ->
  let b1 = Codec.frame ~kind:"t" "live one" in
  let b2 = Codec.frame ~kind:"t" "live two" in
  let b3 = Codec.frame ~kind:"t" "garbage" in
  let h1 = Store.put st b1 in
  let h2 = Store.put st b2 in
  let h3 = Store.put st b3 in
  Store.bind st ~key:(String.make 32 '1') ~hash:h1 ~kind:"t" ~descr:"";
  Store.bind st ~key:(String.make 32 '2') ~hash:h2 ~kind:"t" ~descr:"";
  let g = Store.gc st in
  Alcotest.(check int) "live" 2 g.Store.live;
  Alcotest.(check int) "swept" 1 g.Store.swept;
  Alcotest.(check int) "freed" (String.length b3) g.Store.freed_bytes;
  Alcotest.(check bool) "live blobs intact" true
    (Store.get st h1 = Some b1 && Store.get st h2 = Some b2);
  Alcotest.(check (option string)) "garbage gone" None (Store.get st h3);
  let g = Store.gc st in
  Alcotest.(check int) "second gc sweeps nothing" 0 g.Store.swept

(* ------------------------------------------------------------------ *)
(* Cache keys *)

let base_trace ?(workload = "CG") ?(nranks = 8) ?(iters = Some 3) ?(seed = 42)
    ?(platform = "A") ?(impl = "openmpi") ?(ct = 0.05) () =
  Cache.trace_key ~workload ~nranks ~iters ~seed ~platform ~impl ~cluster_threshold:ct

let base_trace_key ?workload ?nranks ?iters ?seed ?platform ?impl ?ct () =
  fst (base_trace ?workload ?nranks ?iters ?seed ?platform ?impl ?ct ())

let test_cache_key_sensitivity () =
  let base = base_trace_key () in
  Alcotest.(check string) "deterministic" base (base_trace_key ());
  let differs what k = Alcotest.(check bool) what false (String.equal base k) in
  differs "workload" (base_trace_key ~workload:"MG" ());
  differs "nranks" (base_trace_key ~nranks:16 ());
  differs "iters" (base_trace_key ~iters:None ());
  differs "seed" (base_trace_key ~seed:7 ());
  differs "platform" (base_trace_key ~platform:"B" ());
  differs "impl" (base_trace_key ~impl:"mpich" ());
  differs "cluster_threshold" (base_trace_key ~ct:0.1 ());
  (* merge key: the trace hash is its only input *)
  let mk th = Cache.merge_key ~trace_hash:th in
  Alcotest.(check string) "merge deterministic" (fst (mk "t1")) (fst (mk "t1"));
  Alcotest.(check bool) "merge: trace hash" false
    (String.equal (fst (mk "t1")) (fst (mk "t2")));
  (* proxy key: factor matters there and only there *)
  let proxy ?(factor = 1.0) () =
    Cache.proxy_key ~trace_hash:"t" ~factor ~platform:"A" ~impl:"openmpi"
  in
  let pk ?factor () = fst (proxy ?factor ()) in
  Alcotest.(check bool) "proxy: factor" false (String.equal (pk ()) (pk ~factor:2.0 ()));
  Alcotest.(check bool) "proxy: trace hash" false
    (String.equal (pk ())
       (fst (Cache.proxy_key ~trace_hash:"u" ~factor:1.0 ~platform:"A" ~impl:"openmpi")));
  (* float keys are bit-pattern exact, not printf-rounded *)
  Alcotest.(check bool) "0.1+0.2 <> 0.3" false
    (String.equal (pk ~factor:(0.1 +. 0.2) ()) (pk ~factor:0.3 ()));
  (* a format bump invalidates every binding: each descriptor names the
     codec's schema version *)
  let schema = Printf.sprintf "|v%d|" Codec.schema_version in
  List.iter
    (fun (stage, (_, descr)) ->
      if not (Test_comm_check.contains_substring ~needle:schema descr) then
        Alcotest.failf "%s key %S does not name schema %s" stage descr schema)
    [ ("trace", base_trace ()); ("merge", mk "t1"); ("proxy", proxy ()) ]

(* ------------------------------------------------------------------ *)
(* End-to-end incremental cache *)

let counter_value name = Metrics.counter_value (Metrics.counter name)

let test_cached_synthesis_end_to_end () =
  with_temp_store @@ fun st ->
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false)
  @@ fun () ->
  let s = small_spec () in
  (* cold: everything misses *)
  let cold = Pipeline.synthesize_spec ~cache:true ~store:st s in
  Alcotest.(check string) "trace miss" "miss"
    (Pipeline.outcome_name cold.Pipeline.sy_status.Pipeline.cs_trace);
  Alcotest.(check string) "merge miss" "miss"
    (Pipeline.outcome_name cold.Pipeline.sy_status.Pipeline.cs_merge);
  Alcotest.(check string) "proxy miss" "miss"
    (Pipeline.outcome_name cold.Pipeline.sy_status.Pipeline.cs_proxy);
  Alcotest.(check int) "3 misses counted" 3 (counter_value "cache.misses");
  (* warm: everything hits, artifacts identical *)
  let warm = Pipeline.synthesize_spec ~cache:true ~store:st s in
  Alcotest.(check string) "trace hit" "hit"
    (Pipeline.outcome_name warm.Pipeline.sy_status.Pipeline.cs_trace);
  Alcotest.(check string) "merge hit" "hit"
    (Pipeline.outcome_name warm.Pipeline.sy_status.Pipeline.cs_merge);
  Alcotest.(check string) "proxy hit" "hit"
    (Pipeline.outcome_name warm.Pipeline.sy_status.Pipeline.cs_proxy);
  (* the proxy blob carries the grammar: the merge stage is not looked up *)
  Alcotest.(check int) "2 hits counted" 2 (counter_value "cache.hits");
  Alcotest.(check bool) "merged identical" true
    (Merged.equal (merged_of cold) (merged_of warm));
  Alcotest.(check string) "byte-identical C"
    (Codegen_c.generate cold.Pipeline.sy_proxy)
    (Codegen_c.generate warm.Pipeline.sy_proxy);
  (* warm timings must not contain live stage runs *)
  Alcotest.(check bool) "warm ran no tracer" true
    (List.mem_assoc "trace.cached" warm.Pipeline.sy_timings
    && not (List.mem_assoc "trace" warm.Pipeline.sy_timings));
  (* factor change: trace + merge reused, only the proxy search re-runs *)
  let shrunk = Pipeline.synthesize_spec ~cache:true ~store:st ~factor:2.0 s in
  Alcotest.(check string) "factor: trace hit" "hit"
    (Pipeline.outcome_name shrunk.Pipeline.sy_status.Pipeline.cs_trace);
  Alcotest.(check string) "factor: merge hit" "hit"
    (Pipeline.outcome_name shrunk.Pipeline.sy_status.Pipeline.cs_merge);
  Alcotest.(check string) "factor: proxy miss" "miss"
    (Pipeline.outcome_name shrunk.Pipeline.sy_status.Pipeline.cs_proxy);
  (* different seed: full miss *)
  let other = Pipeline.synthesize_spec ~cache:true ~store:st (small_spec ~seed:7 ()) in
  Alcotest.(check string) "seed change: trace miss" "miss"
    (Pipeline.outcome_name other.Pipeline.sy_status.Pipeline.cs_trace);
  (* the store the cache built must be healthy and leak-free *)
  let r = Store.verify st in
  Alcotest.(check (list string)) "store healthy" [] r.Store.v_issues;
  let g = Store.gc st in
  Alcotest.(check int) "no unreferenced blobs" 0 g.Store.swept

let test_cache_off_matches_legacy () =
  let s = small_spec () in
  let sy = Pipeline.synthesize_spec s in
  Alcotest.(check string) "off" "off"
    (Pipeline.outcome_name sy.Pipeline.sy_status.Pipeline.cs_trace);
  Alcotest.(check bool) "no store root" true (sy.Pipeline.sy_status.Pipeline.cs_root = None);
  let cold = Lazy.force synthesis_once in
  Alcotest.(check bool) "same merged as legacy path" true
    (Merged.equal (merged_of cold) (merged_of sy))

(* The file `siesta trace --dump` writes is the trace object a cached
   run keeps: the same bytes whether the stage ran (miss) or decoded the
   object (hit). *)
let test_dump_is_the_store_object () =
  with_temp_store @@ fun st ->
  let s = small_spec () in
  List.iter
    (fun outcome ->
      let ts = Pipeline.trace_stage ~store:st s in
      Alcotest.(check string) "outcome" outcome (Pipeline.outcome_name ts.Pipeline.ts_outcome);
      Alcotest.(check (option string))
        (outcome ^ ": dump = store object")
        (Store.get st (Option.get ts.Pipeline.ts_hash))
        (Some (Codec.encode_trace ~meta:ts.Pipeline.ts_meta ts.Pipeline.ts_trace)))
    [ "miss"; "hit" ]

(* Synthesizing from a dumped blob gives the live synthesis of the run
   that was dumped, for every registry workload. *)
let test_synthesize_blob_equals_live () =
  List.iter
    (fun (w : Siesta_workloads.Registry.t) ->
      let name = w.Siesta_workloads.Registry.name in
      let s = Pipeline.spec ~workload:name ~nranks:4 () in
      let live = Pipeline.synthesize (Pipeline.trace s) in
      let ts = live.Pipeline.sy_trace in
      let blob = Codec.encode_trace ~meta:ts.Pipeline.ts_meta ts.Pipeline.ts_trace in
      let sy = Pipeline.synthesize_blob s blob in
      Alcotest.(check bool) (name ^ ": merged equal") true
        (Merged.equal (merged_of live) (merged_of sy));
      Alcotest.(check string) (name ^ ": byte-identical C")
        (Codegen_c.generate live.Pipeline.sy_proxy)
        (Codegen_c.generate sy.Pipeline.sy_proxy);
      Alcotest.(check bool) (name ^ ": run measurements carried") true
        (sy.Pipeline.sy_trace.Pipeline.ts_meta = ts.Pipeline.ts_meta);
      let st = sy.Pipeline.sy_status in
      Alcotest.(check (list string)) (name ^ ": every stage off") [ "off"; "off"; "off" ]
        (List.map Pipeline.outcome_name
           [ st.Pipeline.cs_trace; st.Pipeline.cs_merge; st.Pipeline.cs_proxy ]))
    Siesta_workloads.Registry.all

(* The stage-timing lists that ledger records and reports read: a miss
   lists the stage run then its ".store" put (not the lookup), a hit only
   the ".cached" lookup, and cache-off only the runs. *)
let test_timings_per_cache_outcome () =
  with_temp_store @@ fun st ->
  let s = small_spec () in
  let names sy = List.map fst sy.Pipeline.sy_timings in
  Alcotest.(check (list string)) "cache off"
    [ "trace.original"; "trace.instrumented"; "merge"; "synthesize" ]
    (names (Pipeline.synthesize_spec s));
  Alcotest.(check (list string)) "cold"
    [
      "trace.original";
      "trace.instrumented";
      "trace.store";
      "merge";
      "merge.store";
      "synthesize";
      "synthesize.store";
    ]
    (names (Pipeline.synthesize_spec ~cache:true ~store:st s));
  Alcotest.(check (list string)) "warm"
    [ "trace.cached"; "synthesize.cached" ]
    (names (Pipeline.synthesize_spec ~cache:true ~store:st s));
  Alcotest.(check (list string)) "factor change"
    [ "trace.cached"; "merge.cached"; "synthesize"; "synthesize.store" ]
    (names (Pipeline.synthesize_spec ~cache:true ~store:st ~factor:2.0 s))

let prop_cached_equals_cold =
  (* For random small specs: a cold cached run and the subsequent warm run
     agree with the uncached pipeline — same merged program, same C. *)
  QCheck.Test.make ~count:4 ~name:"cached synthesis equals cold synthesis"
    (QCheck.make
       ~print:(fun (w, n, seed) -> Printf.sprintf "%s/%d/seed=%d" w n seed)
       QCheck.Gen.(
         let* w = oneofl [ "CG"; "IS"; "MG" ] in
         let* n = oneofl [ 4; 8 ] in
         let* seed = 1 -- 1000 in
         return (w, n, seed)))
    (fun (workload, nranks, seed) ->
      with_temp_store @@ fun st ->
      let s = small_spec ~workload ~nranks ~seed () in
      let plain = Pipeline.synthesize_spec s in
      let cold = Pipeline.synthesize_spec ~cache:true ~store:st s in
      let warm = Pipeline.synthesize_spec ~cache:true ~store:st s in
      Merged.equal (merged_of plain) (merged_of cold)
      && Merged.equal (merged_of cold) (merged_of warm)
      && warm.Pipeline.sy_status.Pipeline.cs_trace = Pipeline.Cache_hit
      && warm.Pipeline.sy_status.Pipeline.cs_merge = Pipeline.Cache_hit
      && warm.Pipeline.sy_status.Pipeline.cs_proxy = Pipeline.Cache_hit
      && String.equal
           (Codegen_c.generate cold.Pipeline.sy_proxy)
           (Codegen_c.generate warm.Pipeline.sy_proxy))

let test_corrupt_cache_degrades_to_miss () =
  with_temp_store @@ fun st ->
  let s = small_spec () in
  let cold = Pipeline.synthesize_spec ~cache:true ~store:st s in
  (* smash every stored object, keep the manifest *)
  List.iter
    (fun (e : Store.entry) ->
      let path = object_path (Store.root st) e.Store.e_hash in
      if Sys.file_exists path then begin
        let oc = open_out_bin path in
        output_string oc "rotten";
        close_out oc
      end)
    (Store.entries st);
  (* the pipeline must recompute, not crash, and repair the store *)
  let again = Pipeline.synthesize_spec ~cache:true ~store:st s in
  Alcotest.(check string) "degrades to miss" "miss"
    (Pipeline.outcome_name again.Pipeline.sy_status.Pipeline.cs_trace);
  Alcotest.(check bool) "same result" true
    (Merged.equal (merged_of cold) (merged_of again));
  let r = Store.verify st in
  Alcotest.(check (list string)) "repaired" [] r.Store.v_issues

(* A proxy hit reads no merged blob: the proxy blob carries the grammar.
   With the merged object damaged on disk (manifest kept), a warm run
   still reports three hits and emits the same C; the next factor's
   proxy search then misses, finds the merged object unreadable and
   merges again, which repairs the store. *)
let test_proxy_hit_reads_no_merged_blob () =
  with_temp_store @@ fun st ->
  let s = small_spec () in
  let cold = Pipeline.synthesize_spec ~cache:true ~store:st s in
  List.iter
    (fun (e : Store.entry) ->
      if e.Store.e_kind = "merged" then begin
        let oc = open_out_bin (object_path (Store.root st) e.Store.e_hash) in
        output_string oc "rotten";
        close_out oc
      end)
    (Store.entries st);
  let outcomes sy =
    let c = sy.Pipeline.sy_status in
    List.map Pipeline.outcome_name [ c.Pipeline.cs_trace; c.Pipeline.cs_merge; c.Pipeline.cs_proxy ]
  in
  let warm = Pipeline.synthesize_spec ~cache:true ~store:st s in
  Alcotest.(check (list string)) "warm: all hits" [ "hit"; "hit"; "hit" ] (outcomes warm);
  Alcotest.(check string) "warm: byte-identical C"
    (Codegen_c.generate cold.Pipeline.sy_proxy)
    (Codegen_c.generate warm.Pipeline.sy_proxy);
  Alcotest.(check (list string)) "warm: no merge lookup"
    [ "trace.cached"; "synthesize.cached" ]
    (List.map fst warm.Pipeline.sy_timings);
  let shrunk = Pipeline.synthesize_spec ~cache:true ~store:st ~factor:2.0 s in
  Alcotest.(check (list string)) "factor: merge miss" [ "hit"; "miss"; "miss" ] (outcomes shrunk);
  Alcotest.(check bool) "factor: merged again" true
    (List.mem_assoc "merge" shrunk.Pipeline.sy_timings);
  Alcotest.(check bool) "factor: same grammar" true
    (Merged.equal (merged_of cold) (merged_of shrunk));
  let r = Store.verify st in
  Alcotest.(check (list string)) "store verifies clean" [] r.Store.v_issues

(* Concurrent access: the serve daemon points several worker threads at
   one store root, so two writers racing on the same and on different
   blobs (through separate handles, as separate processes would) must
   leave a store that verifies clean — write-then-rename plus dedup
   makes the race benign. *)
let test_store_concurrent_writers () =
  with_temp_store (fun st ->
      let root = Store.root st in
      let shared = List.init 16 (fun i -> Codec.encode_text (Printf.sprintf "shared-%d" i)) in
      let own tag = List.init 16 (fun i -> Codec.encode_text (Printf.sprintf "%s-%d" tag i)) in
      let writer tag () =
        let h = Store.open_ ~root () in
        List.map (Store.put h) (shared @ own tag)
      in
      let d1 = Domain.spawn (writer "left") in
      let d2 = Domain.spawn (writer "right") in
      let h1 = Domain.join d1 and h2 = Domain.join d2 in
      (* both domains saw identical hashes for the shared blobs *)
      List.iteri
        (fun i (a, b) ->
          if i < List.length shared then
            Alcotest.(check string) "shared hash agrees" a b)
        (List.combine h1 h2);
      (* every blob is retrievable byte-identically through a fresh handle *)
      List.iter
        (fun blob ->
          let h = Hash.content_hash blob in
          Alcotest.(check (option string)) "blob survives the race" (Some blob)
            (Store.get st h))
        (shared @ own "left" @ own "right");
      let r = Store.verify st in
      Alcotest.(check (list string)) "store verifies clean" [] r.Store.v_issues;
      Alcotest.(check int) "object count: 16 shared + 2x16 private" 48 r.Store.v_objects)

let suite =
  [
    ("fnv-1a 64 known vectors", `Quick, test_fnv64_vectors);
    ("content hash shape", `Quick, test_content_hash_shape);
    ("varint round-trip", `Quick, test_varint_roundtrip);
    ("float round-trip is bit-exact", `Quick, test_float_roundtrip_bitexact);
    ("string round-trip", `Quick, test_string_roundtrip);
    ("frame round-trip", `Quick, test_frame_roundtrip);
    ("frame rejects every damage", `Quick, test_frame_rejects_damage);
    ("schema version pinned", `Quick, test_frame_rejects_schema_bump);
    ("trace codec round-trip", `Quick, test_codec_trace_roundtrip);
    ("trace codec rejects corruption", `Quick, test_codec_trace_rejects_corruption);
    ("trace codec rejects forged counts", `Quick, test_codec_rejects_forged_counts);
    ("trace codec names a foreign file's magic", `Quick, test_codec_names_foreign_magic);
    ("merged codec round-trip", `Quick, test_codec_merged_roundtrip);
    ("proxy codec round-trip (byte-identical C)", `Quick, test_codec_proxy_roundtrip);
    ("merged decoder rejects a rule reference out of range", `Quick,
      test_decode_rejects_rule_ref_out_of_range);
    ("merged decoder rejects a terminal id out of range", `Quick,
      test_decode_rejects_terminal_out_of_range);
    ("merged decoder rejects an uncovered rank", `Quick, test_decode_rejects_uncovered_rank);
    ("proxy decoder rejects a missing or short combination", `Quick,
      test_decode_proxy_rejects_bad_combinations);
    ("store put/get/dedup", `Quick, test_store_put_get_dedup);
    ("store detects on-disk corruption", `Quick, test_store_detects_disk_corruption);
    ("store manifest bind/resolve/rm", `Quick, test_store_manifest_bind_resolve_rm);
    ("store verify", `Quick, test_store_verify);
    ("store gc sweeps exactly the unreferenced", `Quick, test_store_gc_sweeps_exactly_unreferenced);
    ("cache key sensitivity", `Quick, test_cache_key_sensitivity);
    ("cached synthesis end to end", `Quick, test_cached_synthesis_end_to_end);
    ("cache off matches legacy pipeline", `Quick, test_cache_off_matches_legacy);
    ("timings per cache outcome", `Quick, test_timings_per_cache_outcome);
    ("trace dump is the store's trace object", `Quick, test_dump_is_the_store_object);
    ("synthesis from a trace blob equals the live one", `Quick,
      test_synthesize_blob_equals_live);
    ("corrupt cache degrades to a miss", `Quick, test_corrupt_cache_degrades_to_miss);
    ("a proxy hit reads no merged blob", `Quick, test_proxy_hit_reads_no_merged_blob);
    ("concurrent writers leave a clean store", `Quick, test_store_concurrent_writers);
    QCheck_alcotest.to_alcotest prop_varint_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_trace_roundtrip;
    QCheck_alcotest.to_alcotest prop_cached_equals_cold;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |]) prop_flipped_merged;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |]) prop_flipped_proxy;
  ]

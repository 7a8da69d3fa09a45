(* Golden content hashes of the pipeline's outputs.  For every registry
   workload at 4 ranks, plus CG@16, StirTurb@64 and StirTurb@512, the
   digests of the per-rank Sequitur grammars of the recorded codes, the
   generated proxy.c, the static-check JSON, the proxy-vs-original diff
   JSON, the stored trace blob, the encoded merged grammar and the
   results of the evaluation's other replays are pinned.  The merged
   digest fixes the global rule numbering, the rank lists and the
   terminal table the merge produces, independent of codegen.
   StirTurb@512 is the wide_ranks benchmark spec at seed 42: its 512
   distinct main rules each form their own cluster, so it is the only
   row whose main-rule clustering compares hundreds of mains.  Any
   change to the engine, the recorder, the grammar builder, the merge,
   the search, the replays or codegen that alters a single output byte
   fails here; a deliberate output change must update the table. *)

module Pipeline = Siesta.Pipeline
module Recorder = Siesta_trace.Recorder
module Soa = Siesta_trace.Soa
module Grammar = Siesta_grammar.Grammar
module Sequitur = Siesta_grammar.Sequitur
module Codegen_c = Siesta_synth.Codegen_c
module Proxy_ir = Siesta_synth.Proxy_ir
module Comm_check = Siesta_analysis.Comm_check
module Divergence = Siesta_analysis.Divergence
module Codec = Siesta_store.Codec
module Engine = Siesta_mpi.Engine
module Counters = Siesta_perf.Counters
module Spec = Siesta_platform.Spec
module Mpi_impl = Siesta_platform.Mpi_impl
module Pilgrim = Siesta_baselines.Pilgrim
module Scalabench = Siesta_baselines.Scalabench

let hex s = Digest.to_hex (Digest.string s)

(* An engine result, exactly: every float as its bit pattern. *)
let result_text (r : Engine.result) =
  let b = Buffer.create 1024 in
  let f x = Printf.bprintf b "%Lx " (Int64.bits_of_float x) in
  f r.Engine.elapsed;
  Array.iter f r.Engine.per_rank_elapsed;
  Array.iter
    (fun c -> List.iter (fun m -> f (Counters.get c m)) Counters.all_metrics)
    r.Engine.per_rank_counters;
  Printf.bprintf b "%d %d %d" r.Engine.total_calls r.Engine.unreceived_messages
    r.Engine.unreceived_wildcard_prone;
  Buffer.contents b

(* The replays the evaluation runs besides the factor-1 proxy that the
   diff digest covers: the proxy shrunk by 8 on A/openmpi and B/mpich,
   Pilgrim on A/openmpi, and ScalaBench on A/openmpi and B/mpich (or the
   message it refuses the workload with). *)
let replays spec traced sy =
  let nranks = spec.Pipeline.nranks and seed = spec.Pipeline.seed in
  let run (platform, impl) program =
    result_text (Engine.run ~platform ~impl ~nranks ~seed program)
  in
  let a = (Spec.platform_a, Mpi_impl.openmpi) and b = (Spec.platform_b, Mpi_impl.mpich) in
  let shrunk = (Pipeline.synthesize ~factor:8.0 traced).Pipeline.sy_proxy in
  let recorder = traced.Pipeline.recorder in
  let scalabench =
    match
      Scalabench.synthesize ~platform:Spec.platform_a
        ~workload:spec.Pipeline.workload.Siesta_workloads.Registry.name ~nranks
        ~streams:(Array.init nranks (Recorder.events recorder))
        ~compute_table:(Recorder.compute_table recorder)
    with
    | sb -> [ run a (Scalabench.program sb); run b (Scalabench.program sb) ]
    | exception Scalabench.Unsupported msg -> [ msg ]
  in
  String.concat "\n"
    ([
       run a (Proxy_ir.program shrunk);
       run b (Proxy_ir.program shrunk);
       run a (Pilgrim.program sy.Pipeline.sy_proxy.Proxy_ir.merged);
     ]
    @ scalabench)

(* "grammars proxy check diff trace merged replay" digests of one synthesis.
   The diff report replays both programs on the simulated clock, so it
   is as deterministic as the other outputs.  The trace blob carries the
   run metadata next to the packed events: the raw trace size of Table 3
   ([tm_raw_bytes]), the event count and the simulated original and
   instrumented elapsed times.  The merged digest is the codec encoding
   of [sy_proxy.merged], the blob the store keeps for the merge stage.  The
   replay digest covers {!replays}. *)
let digests ~workload ~nranks =
  let spec = Pipeline.spec ~workload ~nranks () in
  let traced = Pipeline.trace spec in
  let sy = Pipeline.synthesize traced in
  let recorder = traced.Pipeline.recorder in
  let grammars =
    List.init (Recorder.nranks recorder) (fun r ->
        Sequitur.of_seq ~rle:true (Soa.to_array (Recorder.codes recorder r)))
    |> List.map (Format.asprintf "%a" Grammar.pp)
    |> String.concat "\n--\n"
  in
  let proxy = Codegen_c.generate sy.Pipeline.sy_proxy in
  let check = Comm_check.to_json (Comm_check.check ~impl:spec.Pipeline.impl sy.Pipeline.sy_proxy.Proxy_ir.merged) in
  let diff = Divergence.to_json (Pipeline.diff_synthesis sy).Pipeline.f_report in
  let ts = sy.Pipeline.sy_trace in
  let trace = Codec.encode_trace ~meta:ts.Pipeline.ts_meta ts.Pipeline.ts_trace in
  let merged = Codec.encode_merged sy.Pipeline.sy_proxy.Proxy_ir.merged in
  let replay = replays spec traced sy in
  String.concat " "
    [ hex grammars; hex proxy; hex check; hex diff; hex trace; hex merged; hex replay ]

let golden =
  [
    ("BT", 4,
      "a1cff5d62fd9646a9a0065105eca8d9a 322e39e74a57c53f7b6ce46c8774d891 b11aef7468f98b84d5a7ae1284b162ca 7e8797254870652c82dc7a2027110d9a 3bda1632b59ea81f858d9f1b1f81d3c5 803a7ac3fb31cb5580ccf87cf4eb7d35 ae3a6da12ccdd244d73e810f5a84b705");
    ("BT-IO", 4,
      "5cefdec37a44be9fde4b7deea911b303 2c6c96bc1c73915f1bb1fb854e458f85 b11aef7468f98b84d5a7ae1284b162ca d21cac2fe731ad36756dc4048a7d7ac9 98e17faa4ef4c0a5cb719a5bdba86c0e 6c2d60fc0c89fc13d7acf8d415687991 60d45a8c39264f069c31b237ed69d89f");
    ("CG", 4,
      "cbb78beb8dae86f4f8f03e9db9c4831a f8bb0f4fbc162b7adc8dd3a31260e04f b6aaa1504dfbb89f6e72c1fdde94db07 b08cfbebb92b66aa2ce8dfa33b0300e0 affca1a645cf275bc7355f1f59038bf3 c508835f8f64339b2d903dda0f1dad47 9e25578e3b4a8ecc58df40fde2755d35");
    ("IS", 4,
      "1480e78f37c4e2130bf9759357517177 e04fb46bae041044b0c2f2a82fcde806 f03544a57ff4f7591c8d636b9a5f6803 acca625ef602dccf1d0d7abecdf90c7c cb2568af86880229d0951ba6f16b1d22 7504aa3e6feff65aaea42d75efd22d24 df2898142a7a7d588fbac6d4a51f1e94");
    ("MG", 4,
      "d99d90a1cc6ed383d2aeb00f2833c0bd 090277ce83991eda075ea77199224a89 0f4d662f35d44e05740823b6692ba276 8b0e01b2e974585d7248b817060a92e4 a0d67a5017c7d12ab3aa65210d50592f c39c377b700e243a50d64311d6e496fb 9f66c448289d93361b8c2fe3c90ecfd8");
    ("SP", 4,
      "ab01fa6a64f579d4c8c3d822b71d2218 77a3bd1049c2dad4cdd082dff563fc62 11dd788cabba77575c25aa0795420161 319e2e958d3d2f15a26c0690f18b9849 f4891be1c0f7686a2169d1a4233ce533 379151c7baba1ede5f3d33258fe49566 8ef0a47db5d2ea385a9e64b576a8ecb3");
    ("Sweep3d", 4,
      "4cd633a5c17066f9772048ddb95a4999 dc1d2ab51c76625bb1dfc3b23b785c57 15bb6d6f0db79bd9253dee3eaa7f0ab1 b87fe12a4fef7dfb11c07f7b33c9fa3e 9d68055453a7df65e07be6f26de28b67 ac50dfb25dac63ca0626a233605764b0 bc251139b0f62cab847390db4aca278e");
    ("StirTurb", 4,
      "ab8ba384fa4e730182a9f97fb3a66535 422cf9161fc12dfcba56a6976f64eec8 2ee2c6b62021d2cfe02ccdaaa626db2a 4f88ab65fbffee326102787762247b19 2cf7db73224c196235e002ffe4995c17 d02ea34add30bbd54992761fd922d4b0 48c5561e744942d437cefbe3301a6726");
    ("Sod", 4,
      "26010e07cdd4e5441cb86ff82e809ba4 f7f772b15f3318d0116070ae9208a159 957f8dd0dd63feaf11e86aaa84f1b27f 5200149d49811acef776f34e08a666b7 59f77d06a19c905ef06cc2e74e80d29e 0d447dfa04184078350a23fee90a8a83 dc84d69bdaa3b5c7606c7e3b0f8be162");
    ("Sedov", 4,
      "aa3723919028192c9cc38a821863a5d8 c92e91dee9a3e336e4c4db645bda838b d95d9a0f6dd709283d643dfe837a0d6f 74d70bb806107695f3b98ac81fcdec9b 353db508e9928b8bc527c4bbcf09d82c 725287218f33e5c78607f3eb24e6d5e4 97f10baaab773f8f1f0641f8b0ae70a3");
    ("CG", 16,
      "463111673e45e48eae3d2d17c58f7a09 71049d5b80d29852b291911278011b81 c0eb4377f4b66e4bf4679a1b054c48e5 d06b6061cee82517816e164e9133ba01 5d057af57a4e02b96b50bc514841c5b0 c35361591b0d964f70d8d0d6d89b28a3 6f7998cf974c3d07cb376848b6854183");
    ("StirTurb", 64,
      "db73b9f3b73c0f4670ae653391e2c96b dacebadf68c5fe09360fe3b312838b6b e480d558309c0936f07f56d7681f7aa1 5db4c695481e82505069239543712fa4 84cc49a8ee43ee537a77e7466f111a36 a6ece0b2a8e68dd8b440d5c4b20c7e89 3a3d29aaaad48a30486b09e9778d6889");
    ("StirTurb", 512,
      "cf1d7af77a6d87ed6a3158f1aef671be 8e411e384cd15bad1519f635bdcd2078 1b6d345525cc6168e019d8e8ff39cc1b abbae34814f59af75214870c72e938be e0f71c3cbc3088f1829be1b6e5e88899 3a8dc281be0e0fee496a5d40d3ef592d 6e12d8930024f9dffd35124cf5d41e88");
  ]

let case (workload, nranks, expected) =
  ( Printf.sprintf "golden %s@%d" workload nranks,
    `Quick,
    fun () ->
      Alcotest.(check string)
        (Printf.sprintf "%s@%d grammars/proxy/check/diff/trace/merged/replay digests" workload
           nranks)
        expected (digests ~workload ~nranks) )

let suite = List.map case golden

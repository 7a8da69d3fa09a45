(* Tests for siesta_grammar: the CFG representation and the
   space-optimized Sequitur construction, including qcheck properties for
   the invariants the paper relies on. *)

module G = Siesta_grammar.Grammar
module Q = Siesta_grammar.Sequitur

let entry ?(reps = 1) sym : G.entry = { G.sym; reps }

(* ------------------------------------------------------------------ *)
(* Grammar *)

let sample_grammar =
  (* S -> R1^2 t9 ; R1 -> t1 t2^3 *)
  {
    G.main = [ entry ~reps:2 (G.N 0); entry (G.T 9) ];
    rules = [| [ entry (G.T 1); entry ~reps:3 (G.T 2) ] |];
  }

let test_expand () =
  Alcotest.(check (list int)) "expansion"
    [ 1; 2; 2; 2; 1; 2; 2; 2; 9 ]
    (Array.to_list (G.expand sample_grammar))

let test_counts () =
  Alcotest.(check int) "entries" 4 (G.entry_count sample_grammar);
  Alcotest.(check int) "rules" 1 (G.rule_count sample_grammar);
  Alcotest.(check int) "expanded length" 9 (G.expanded_length sample_grammar)

let test_depth () =
  let g =
    {
      G.main = [ entry (G.N 1) ];
      rules = [| [ entry (G.T 0) ]; [ entry (G.N 0); entry (G.T 1) ] |];
    }
  in
  Alcotest.(check bool) "depths" true (G.depth g = [| 1; 2 |])

let test_validate_rejects_bad_ref () =
  let g = { G.main = [ entry (G.N 5) ]; rules = [||] } in
  Alcotest.(check bool) "bad ref raises" true
    (match G.validate ~terminals:1 g with exception Invalid_argument _ -> true | () -> false)

let test_validate_rejects_zero_reps () =
  let g = { G.main = [ entry ~reps:0 (G.T 1) ]; rules = [||] } in
  Alcotest.(check bool) "zero reps raises" true
    (match G.validate ~terminals:2 g with exception Invalid_argument _ -> true | () -> false)

let test_validate_rejects_empty_rule () =
  let g = { G.main = [ entry (G.N 0) ]; rules = [| [] |] } in
  Alcotest.(check bool) "empty rule raises" true
    (match G.validate ~terminals:1 g with exception Invalid_argument _ -> true | () -> false)

let test_serialized_bytes () =
  Alcotest.(check int) "6/entry + 8/rule" ((6 * 4) + (8 * 2))
    (G.serialized_bytes sample_grammar)

(* ------------------------------------------------------------------ *)
(* Sequitur: directed cases *)

let roundtrip ?rle input =
  let g = Q.of_seq ?rle input in
  G.validate ~terminals:(1 + Array.fold_left max 0 input) g;
  Alcotest.(check bool) "roundtrip" true (G.expand g = input);
  g

let test_empty_and_singleton () =
  let g = roundtrip [||] in
  Alcotest.(check int) "empty main" 0 (List.length g.G.main);
  ignore (roundtrip [| 42 |])

let test_pure_run_is_constant_size () =
  (* the paper's O(1) claim for regular loops under constraint 3 *)
  let g1 = roundtrip (Array.make 10 5) in
  let g2 = roundtrip (Array.make 10_000 5) in
  Alcotest.(check int) "a^10 one entry" 1 (G.entry_count g1);
  Alcotest.(check int) "a^10000 still one entry" 1 (G.entry_count g2)

let test_repeated_body_is_constant_size () =
  let body = [| 1; 2; 3; 4 |] in
  let seq n = Array.concat (List.init n (fun _ -> body)) in
  let g_small = roundtrip (seq 8) in
  let g_large = roundtrip (seq 4096) in
  Alcotest.(check int) "same grammar size" (G.entry_count g_small) (G.entry_count g_large);
  Alcotest.(check bool) "tiny" true (G.entry_count g_large <= 6)

let test_plain_sequitur_grows_logarithmically () =
  let body = [| 1; 2; 3; 4 |] in
  let seq n = Array.concat (List.init n (fun _ -> body)) in
  let g_plain = roundtrip ~rle:false (seq 1024) in
  let g_rle = roundtrip (seq 1024) in
  Alcotest.(check bool) "plain bigger than rle" true
    (G.entry_count g_plain > G.entry_count g_rle);
  (* but still logarithmic, not linear *)
  Alcotest.(check bool) "plain sublinear" true (G.entry_count g_plain < 64)

let test_nested_loops () =
  (* ((a b^3 c)^10 d)^5 *)
  let inner = Array.concat (List.init 10 (fun _ -> [| 1; 2; 2; 2; 3 |])) in
  let outer = Array.concat (List.init 5 (fun _ -> Array.append inner [| 4 |])) in
  let g = roundtrip outer in
  Alcotest.(check bool) "nested structure compact" true (G.entry_count g <= 10)

let test_shared_digrams_become_rules () =
  let g = roundtrip [| 1; 2; 7; 1; 2; 8; 1; 2; 9 |] in
  Alcotest.(check bool) "rule for (1,2)" true (G.rule_count g >= 1)

let test_builder_incremental () =
  let t = Q.create () in
  Array.iter (Q.push t) [| 1; 2; 1 |];
  let g1 = Q.finalize t in
  Alcotest.(check bool) "prefix" true (G.expand g1 = [| 1; 2; 1 |]);
  (* the builder stays usable after export *)
  Q.push t 2;
  Array.iter (Q.push t) [| 1; 2 |];
  let g2 = Q.finalize t in
  Alcotest.(check bool) "extended" true (G.expand g2 = [| 1; 2; 1; 2; 1; 2 |])

let test_invariants_exposed () =
  let t = Q.create () in
  Array.iter (Q.push t) (Array.init 200 (fun i -> i mod 3));
  match Q.check_invariants t with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "invariant violated: %s" e

(* ------------------------------------------------------------------ *)
(* Sequitur: qcheck properties *)

let seq_gen =
  QCheck.Gen.(
    sized (fun n ->
        let n = min n 300 in
        let* alpha = 1 -- 8 in
        array_repeat n (0 -- (alpha - 1))))

let loopnest_gen =
  (* sequences built from random loop nests — the structured case that
     stresses run-length merging *)
  QCheck.Gen.(
    let rec build depth =
      if depth = 0 then map (fun v -> [| v |]) (0 -- 4)
      else
        frequency
          [
            (1, map (fun v -> [| v |]) (0 -- 4));
            ( 3,
              let* parts = list_size (1 -- 3) (build (depth - 1)) in
              let* reps = 1 -- 6 in
              return (Array.concat (List.concat (List.init reps (fun _ -> parts)))) );
          ]
    in
    build 4)

let arbitrary_seq = QCheck.make ~print:(fun a -> QCheck.Print.(array int) a) seq_gen
let arbitrary_nest = QCheck.make ~print:(fun a -> QCheck.Print.(array int) a) loopnest_gen

let prop_roundtrip rle =
  QCheck.Test.make
    ~name:(Printf.sprintf "sequitur roundtrip (rle=%b)" rle)
    ~count:300 arbitrary_seq
    (fun input ->
      let g = Q.of_seq ~rle input in
      G.expand g = input)

let prop_roundtrip_nest rle =
  QCheck.Test.make
    ~name:(Printf.sprintf "sequitur loop-nest roundtrip (rle=%b)" rle)
    ~count:200 arbitrary_nest
    (fun input -> Array.length input > 20_000 || G.expand (Q.of_seq ~rle input) = input)

let prop_invariants =
  QCheck.Test.make ~name:"sequitur online invariants" ~count:300 arbitrary_seq (fun input ->
      let t = Q.create () in
      Array.iter (Q.push t) input;
      match Q.check_invariants t with Ok _ -> true | Error _ -> false)

let prop_valid_grammar =
  QCheck.Test.make ~name:"exported grammar validates" ~count:300 arbitrary_seq (fun input ->
      let terminals = 1 + Array.fold_left max 0 input in
      match G.validate ~terminals (Q.of_seq input) with () -> true | exception _ -> false)

let prop_no_expansion_blowup =
  QCheck.Test.make ~name:"grammar never larger than input + slack" ~count:300 arbitrary_seq
    (fun input ->
      Array.length input = 0 || G.entry_count (Q.of_seq input) <= Array.length input + 2)

(* Long sequences over tiny alphabets: many repeated digrams, so the
   digram index grows several times and deletes constantly (each deletion
   shifts its probe run back). *)
let long_small_alphabet_gen =
  QCheck.Gen.(
    let* alpha = 1 -- 3 in
    let* n = 2_000 -- 20_000 in
    array_repeat n (0 -- (alpha - 1)))

let prop_long_small_alphabet rle =
  QCheck.Test.make
    ~name:(Printf.sprintf "sequitur long small-alphabet streams (rle=%b)" rle)
    ~count:25
    (QCheck.make ~print:(fun a -> Printf.sprintf "<%d symbols>" (Array.length a)) long_small_alphabet_gen)
    (fun input ->
      let t = Q.create ~rle () in
      Array.iter (Q.push t) input;
      G.expand (Q.finalize t) = input
      && match Q.check_invariants t with Ok _ -> true | Error e -> QCheck.Test.fail_report e)

(* One builder, reset before each of several streams, builds what a
   fresh builder builds: the arrays it grew on earlier streams, and
   whatever they still hold, change nothing. *)
let prop_reset_is_fresh rle =
  QCheck.Test.make
    ~name:(Printf.sprintf "sequitur reset builder equals a fresh one (rle=%b)" rle)
    ~count:200
    (QCheck.make ~print:QCheck.Print.(list (array int)) QCheck.Gen.(list_size (1 -- 6) seq_gen))
    (fun streams ->
      let t = Q.create ~rle () in
      List.for_all
        (fun input ->
          Q.reset t;
          Array.iter (Q.push t) input;
          Q.finalize t = Q.of_seq ~rle input
          && match Q.check_invariants t with Ok _ -> true | Error e -> QCheck.Test.fail_report e)
        streams)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip true;
      prop_roundtrip false;
      prop_roundtrip_nest true;
      prop_roundtrip_nest false;
      prop_invariants;
      prop_valid_grammar;
      prop_no_expansion_blowup;
      prop_long_small_alphabet true;
      prop_long_small_alphabet false;
      prop_reset_is_fresh true;
      prop_reset_is_fresh false;
    ]

let suite =
  [
    ("grammar expansion", `Quick, test_expand);
    ("grammar counts", `Quick, test_counts);
    ("grammar depth", `Quick, test_depth);
    ("grammar validate: bad rule ref", `Quick, test_validate_rejects_bad_ref);
    ("grammar validate: zero reps", `Quick, test_validate_rejects_zero_reps);
    ("grammar validate: empty rule", `Quick, test_validate_rejects_empty_rule);
    ("grammar serialized size", `Quick, test_serialized_bytes);
    ("sequitur empty/singleton", `Quick, test_empty_and_singleton);
    ("sequitur O(1) pure runs", `Quick, test_pure_run_is_constant_size);
    ("sequitur O(1) repeated bodies", `Quick, test_repeated_body_is_constant_size);
    ("plain sequitur is logarithmic", `Quick, test_plain_sequitur_grows_logarithmically);
    ("sequitur nested loops", `Quick, test_nested_loops);
    ("sequitur shares digrams", `Quick, test_shared_digrams_become_rules);
    ("sequitur incremental builder", `Quick, test_builder_incremental);
    ("sequitur invariant checker", `Quick, test_invariants_exposed);
  ]
  @ qcheck_tests

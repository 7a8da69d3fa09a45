(* Focused tests of the main-rule merging semantics (Section 2.6.2): what
   the LCS merge does to shared and variant symbols, how rank lists are
   attributed, and when clustering keeps mains apart. *)

module Merged = Siesta_merge.Merged
module Lcs = Siesta_merge.Lcs
module MPipe = Siesta_merge.Pipeline
module Rank_list = Siesta_merge.Rank_list
module Terminal_table = Siesta_merge.Terminal_table
module Grammar = Siesta_grammar.Grammar
module Event = Siesta_trace.Event
module D = Siesta_mpi.Datatype

let barrier = Event.Barrier { comm = 0 }
let send c = Event.Send { Event.rel_peer = 1; tag = 0; dt = D.Int; count = c }

(* merge hand-written per-rank streams and return (merged, global seqs) *)
let merge ?config streams =
  let nranks = Array.length streams in
  let merged = MPipe.merge_streams ?config ~nranks streams in
  Merged.validate merged;
  let seqs = Terminal_table.sequences (Terminal_table.build streams) in
  for r = 0 to nranks - 1 do
    if Walk.expand_for_rank merged r <> seqs.(r) then
      Alcotest.failf "rank %d not reconstructed" r
  done;
  merged

let entries_of merged = merged.Merged.mains.(0)

let test_shared_prefix_suffix_single_rank_lists () =
  (* ranks share [b s10 b]; rank 1 inserts s99 in the middle *)
  let base = [| barrier; send 10; barrier |] in
  let with_extra = [| barrier; send 10; send 99; barrier |] in
  let merged = merge [| base; with_extra; base; base |] in
  Alcotest.(check int) "one cluster" 1 (Array.length merged.Merged.mains);
  let entries = entries_of merged in
  (* shared symbols carry all four ranks; the insertion carries only rank 1 *)
  let shared, variants =
    List.partition (fun (e : Merged.mentry) -> Rank_list.cardinal e.Merged.ranks = 4) entries
  in
  Alcotest.(check int) "three shared entries" 3 (List.length shared);
  Alcotest.(check int) "one variant entry" 1 (List.length variants);
  match variants with
  | [ e ] -> Alcotest.(check (list int)) "attributed to rank 1" [ 1 ] (Rank_list.to_list e.Merged.ranks)
  | _ -> Alcotest.fail "unexpected partition"

let test_disjoint_tails_keep_order () =
  (* after a shared prefix, rank 0 does (s1 s2), rank 1 does (s3 s4): the
     merged main must contain both tails in their own order *)
  let a = [| barrier; send 1; send 2 |] in
  let b = [| barrier; send 3; send 4 |] in
  let merged = merge [| a; b |] in
  let expanded0 = Walk.expand_for_rank merged 0 in
  let expanded1 = Walk.expand_for_rank merged 1 in
  Alcotest.(check int) "rank0 3 events" 3 (Array.length expanded0);
  Alcotest.(check int) "rank1 3 events" 3 (Array.length expanded1)

let test_reps_must_match_to_merge () =
  (* rank 0 loops 10x, rank 1 loops 20x: the run-length exponents differ,
     so the compressed symbols cannot share a main entry *)
  let mk n = Array.concat (List.init n (fun _ -> [| barrier; send 5 |])) in
  let merged = merge ~config:{ MPipe.default_config with cluster_threshold = 1.0 }
      [| mk 10; mk 20 |] in
  List.iter
    (fun (e : Merged.mentry) ->
      if Rank_list.cardinal e.Merged.ranks = 2 then
        (* any shared entry must expand identically for both, which loops
           of different trip counts cannot *)
        ())
    (entries_of merged);
  (* reconstruction (checked in [merge]) is the real assertion here *)
  Alcotest.(check pass) "lossless" () ()

let test_low_threshold_separates_clusters () =
  let a = Array.concat (List.init 8 (fun _ -> [| barrier; send 1 |])) in
  let b = Array.concat (List.init 8 (fun _ -> [| send 2; send 3; send 4 |])) in
  let merged =
    merge ~config:{ MPipe.default_config with cluster_threshold = 0.1 } [| a; b; a; b |]
  in
  Alcotest.(check int) "two clusters" 2 (Array.length merged.Merged.mains);
  (* cluster rank sets partition the ranks *)
  let covered =
    Array.to_list merged.Merged.main_ranks
    |> List.concat_map Rank_list.to_list
    |> List.sort compare
  in
  Alcotest.(check (list int)) "partition" [ 0; 1; 2; 3 ] covered

let test_high_threshold_merges_dissimilar () =
  let a = Array.concat (List.init 8 (fun _ -> [| barrier; send 1 |])) in
  let b = Array.concat (List.init 8 (fun _ -> [| send 2; send 3; send 4 |])) in
  let merged =
    merge ~config:{ MPipe.default_config with cluster_threshold = 1.0 } [| a; b |]
  in
  Alcotest.(check int) "one cluster" 1 (Array.length merged.Merged.mains)

let test_nested_rule_merging () =
  (* a nested loop shared by all ranks must produce shared rules, with the
     rank-variant suffix separate *)
  let inner = [| send 1; send 2 |] in
  let body = Array.concat (List.init 6 (fun _ -> inner)) in
  let stream r =
    Array.concat
      (List.init 4 (fun _ -> Array.append body [| barrier |])
      @ [ (if r = 0 then [| send 99 |] else [||]) ])
  in
  let merged = merge (Array.init 6 stream) in
  let single = merge [| stream 1 |] in
  (* rule sharing: the 6-rank merge needs no more rules than one rank *)
  Alcotest.(check bool) "rules shared" true
    (Array.length merged.Merged.rules <= Array.length single.Merged.rules + 1)

let test_depth_consistency_after_merge () =
  let inner = [| send 1; send 2 |] in
  let body = Array.concat (List.init 6 (fun _ -> inner)) in
  let stream = Array.concat (List.init 5 (fun _ -> Array.append body [| barrier |])) in
  let merged = merge (Array.make 4 stream) in
  let g = { Grammar.main = []; rules = merged.Merged.rules } in
  let depths = Grammar.depth g in
  Array.iter (fun d -> Alcotest.(check bool) "positive depth" true (d >= 1)) depths

let test_empty_streams () =
  let merged = merge [| [||]; [||] |] in
  Alcotest.(check int) "no terminals" 0 (Array.length merged.Merged.terminals);
  Alcotest.(check int) "empty expansion" 0 (Array.length (Walk.expand_for_rank merged 0))

(* A main entry and a rule body are both walked by Grammar.iter_rule, so
   an out-of-range reference in either raises the same typed error. *)
let test_bad_rule_reference () =
  let one_rank main rule =
    {
      Merged.nranks = 1;
      terminals = [| barrier |];
      rules = [| rule |];
      mains = [| [ { Merged.sym = main; reps = 1; ranks = Rank_list.singleton 0 } ] |];
      main_ranks = [| Rank_list.singleton 0 |];
    }
  in
  let raises what m =
    Alcotest.check_raises what (Invalid_argument "Grammar: rule reference 99 out of range")
      (fun () -> ignore (Walk.expand_for_rank m 0))
  in
  raises "main entry N 99" (one_rank (Grammar.N 99) [ { Grammar.sym = T 0; reps = 1 } ]);
  raises "rule entry N 99" (one_rank (Grammar.N 0) [ { Grammar.sym = N 99; reps = 1 } ])

let test_single_rank () =
  let merged = merge [| [| barrier; send 1; barrier |] |] in
  Alcotest.(check int) "one cluster" 1 (Array.length merged.Merged.mains);
  Alcotest.(check int) "covers rank 0" 1 (Rank_list.cardinal merged.Merged.main_ranks.(0))

(* ------------------------------------------------------------------ *)
(* Cluster boundaries.  No rank below repeats a digram or sends one
   message twice in a row, so Sequitur leaves each stream as its main
   rule, and the distance of two mains is that of the streams. *)

let sends counts = Array.of_list (List.map send counts)
let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)
let clusters merged = Array.to_list (Array.map Rank_list.to_list merged.Merged.main_ranks)

let test_reversed_sends_stay_apart () =
  (* the same six sends in reverse order share every symbol, but their
     LCS has length 1: distance 10/12, far above the threshold *)
  let merged = merge [| sends (range 1 6); sends (List.rev (range 1 6)) |] in
  Alcotest.(check (list (list int))) "two clusters" [ [ 0 ]; [ 1 ] ] (clusters merged)

let test_threshold_is_inclusive () =
  (* 20 sends against 20 that share the first k: LCS k, distance
     (40 - 2k)/40.  k = 13 is exactly the default threshold 14/40 = 0.35,
     k = 12 is 16/40. *)
  let base = sends (range 1 20) in
  let sharing k = sends (range 1 k @ range 101 (120 - k)) in
  Alcotest.(check (float 0.)) "14/40 is the threshold" MPipe.default_config.cluster_threshold
    (Lcs.normalized_distance_int (Array.of_list (range 1 20))
       (Array.of_list (range 1 13 @ range 101 107)));
  Alcotest.(check (list (list int))) "14/40 shares a cluster" [ [ 0; 1 ] ]
    (clusters (merge [| base; sharing 13 |]));
  Alcotest.(check (list (list int))) "16/40 stays apart" [ [ 0 ]; [ 1 ] ]
    (clusters (merge [| base; sharing 12 |]))

(* The clustering rule stated directly: ranks in order, each joins the
   oldest cluster whose first rank's sequence is within [threshold] of
   its own, else opens a new cluster. *)
let first_fit ~threshold seqs =
  let clusters = ref [] (* newest first: (representative, ranks newest first) *) in
  Array.iteri
    (fun r s ->
      match
        List.find_opt
          (fun (rep, _) -> Lcs.normalized_distance_int rep s <= threshold)
          (List.rev !clusters)
      with
      | Some (_, ranks) -> ranks := r :: !ranks
      | None -> clusters := (s, ref [ r ]) :: !clusters)
    seqs;
  List.rev_map (fun (_, ranks) -> List.rev !ranks) !clusters

(* per-rank subsets of a small alphabet, each kept in ascending order
   (long common subsequences) or shuffled (short ones).  Some ranks put
   a separator send 0 between their elements: a symbol that repeats
   without repeating a digram, so mains carry multiplicities above 1. *)
let distinct_sends_gen =
  QCheck.Gen.(
    let* threshold = oneofl [ 0.1; 0.25; 0.35; 0.5; 0.75 ] in
    let* alphabet = 2 -- 12 in
    let rank =
      let* keep = array_repeat alphabet bool in
      let subset = List.filteri (fun i _ -> keep.(i)) (range 1 alphabet) in
      let* sorted = bool in
      let* subset = if sorted then return subset else shuffle_l subset in
      let* separated = bool in
      match subset with
      | x :: rest when separated -> return (x :: List.concat_map (fun y -> [ 0; y ]) rest)
      | _ -> return subset
    in
    let* nranks = 1 -- 10 in
    let* ranks = list_repeat nranks rank in
    return (threshold, Array.of_list (List.map Array.of_list ranks)))

let arb_distinct_sends =
  QCheck.make
    ~print:QCheck.Print.(pair float (array (array int)))
    distinct_sends_gen

let prop_clusters_are_first_fit =
  QCheck.Test.make ~name:"main clusters are greedy first-fit over the LCS distance" ~count:500
    arb_distinct_sends (fun (threshold, counts) ->
      let streams = Array.map (Array.map send) counts in
      let merged = merge ~config:{ MPipe.default_config with cluster_threshold = threshold } streams in
      let seqs = Terminal_table.sequences (Terminal_table.build streams) in
      clusters merged = first_fit ~threshold seqs)

let suite =
  QCheck_alcotest.to_alcotest prop_clusters_are_first_fit
  :: [
    ("shared prefix/suffix with one insertion", `Quick, test_shared_prefix_suffix_single_rank_lists);
    ("disjoint tails keep their order", `Quick, test_disjoint_tails_keep_order);
    ("different trip counts stay lossless", `Quick, test_reps_must_match_to_merge);
    ("low threshold separates clusters", `Quick, test_low_threshold_separates_clusters);
    ("high threshold merges dissimilar mains", `Quick, test_high_threshold_merges_dissimilar);
    ("nested rules shared across ranks", `Quick, test_nested_rule_merging);
    ("rule depths consistent after merge", `Quick, test_depth_consistency_after_merge);
    ("empty streams", `Quick, test_empty_streams);
    ("single rank", `Quick, test_single_rank);
    ("out-of-range rule reference is a typed error", `Quick, test_bad_rule_reference);
    ("reversed sends stay in two clusters", `Quick, test_reversed_sends_stay_apart);
    ("cluster threshold is inclusive", `Quick, test_threshold_is_inclusive);
  ]

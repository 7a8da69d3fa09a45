(* Tests for siesta_merge: rank lists, LCS, the global terminal table, and
   the inter-process merging pipeline (losslessness above all). *)

module Rank_list = Siesta_merge.Rank_list
module Lcs = Siesta_merge.Lcs
module Terminal_table = Siesta_merge.Terminal_table
module Merged = Siesta_merge.Merged
module MPipe = Siesta_merge.Pipeline
module Event = Siesta_trace.Event
module D = Siesta_mpi.Datatype
module Rng = Siesta_util.Rng

(* ------------------------------------------------------------------ *)
(* Rank_list *)

let test_rank_list_basics () =
  let r = Rank_list.of_list [ 3; 1; 2; 1 ] in
  Alcotest.(check (list int)) "sorted dedup" [ 1; 2; 3 ] (Rank_list.to_list r);
  Alcotest.(check int) "cardinal" 3 (Rank_list.cardinal r);
  Alcotest.(check bool) "mem" true (Rank_list.mem r 2);
  Alcotest.(check bool) "not mem" false (Rank_list.mem r 5)

let test_rank_list_union () =
  let a = Rank_list.of_list [ 1; 3; 5 ] and b = Rank_list.of_list [ 2; 3; 6 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 5; 6 ] (Rank_list.to_list (Rank_list.union a b));
  Alcotest.(check bool) "idempotent" true (Rank_list.equal (Rank_list.union a a) a)

let test_rank_list_shapes () =
  let check_shape name l ~nranks expected =
    let s = Rank_list.shape ~nranks (Rank_list.of_list l) in
    Alcotest.(check bool) name true (s = expected)
  in
  check_shape "all" [ 0; 1; 2; 3 ] ~nranks:4 (Rank_list.All 4);
  check_shape "range" [ 2; 3; 4 ] ~nranks:8 (Rank_list.Range (2, 4));
  check_shape "single" [ 5 ] ~nranks:8 (Rank_list.Range (5, 5));
  check_shape "strided" [ 0; 2; 4; 6 ] ~nranks:8 (Rank_list.Strided (0, 6, 2));
  check_shape "explicit" [ 0; 1; 5 ] ~nranks:8 (Rank_list.Explicit [ 0; 1; 5 ])

let test_rank_list_union_preserves_sortedness () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    let mk () = Rank_list.of_list (List.init (Rng.int rng 20) (fun _ -> Rng.int rng 50)) in
    let u = Rank_list.union (mk ()) (mk ()) in
    let l = Rank_list.to_list u in
    Alcotest.(check bool) "sorted, unique" true (l = List.sort_uniq compare l)
  done

(* ------------------------------------------------------------------ *)
(* Lcs *)

let ieq (a : int) b = a = b

let test_lcs_known () =
  Alcotest.(check int) "abcbdab/bdcaba" 4
    (Lcs.length ~eq:ieq [| 1; 2; 3; 2; 4; 1; 2 |] [| 2; 4; 3; 1; 2; 1 |]);
  Alcotest.(check int) "disjoint" 0 (Lcs.length ~eq:ieq [| 1; 2 |] [| 3; 4 |]);
  Alcotest.(check int) "identical" 3 (Lcs.length ~eq:ieq [| 1; 2; 3 |] [| 1; 2; 3 |]);
  Alcotest.(check int) "empty" 0 (Lcs.length ~eq:ieq [||] [| 1 |])

let test_indel_distance () =
  Alcotest.(check int) "identical" 0 (Lcs.indel_distance ~eq:ieq [| 1; 2 |] [| 1; 2 |]);
  Alcotest.(check int) "disjoint" 4 (Lcs.indel_distance ~eq:ieq [| 1; 2 |] [| 3; 4 |]);
  Alcotest.(check (float 1e-9)) "normalized identical" 0.0
    (Lcs.normalized_distance ~eq:ieq [| 1 |] [| 1 |]);
  Alcotest.(check (float 1e-9)) "normalized disjoint" 1.0
    (Lcs.normalized_distance ~eq:ieq [| 1 |] [| 2 |]);
  Alcotest.(check (float 1e-9)) "both empty" 0.0 (Lcs.normalized_distance ~eq:ieq [||] [||])

let test_lcs_int_known () =
  Alcotest.(check int) "abcbdab/bdcaba" 4
    (Lcs.length_int [| 1; 2; 3; 2; 4; 1; 2 |] [| 2; 4; 3; 1; 2; 1 |]);
  Alcotest.(check int) "disjoint" 0 (Lcs.length_int [| 1; 2 |] [| 3; 4 |]);
  Alcotest.(check int) "identical" 3 (Lcs.length_int [| 1; 2; 3 |] [| 1; 2; 3 |]);
  Alcotest.(check int) "empty" 0 (Lcs.length_int [||] [| 1 |]);
  (* crosses the 62-bit word boundary of the bit-parallel kernel *)
  let a = Array.init 200 (fun i -> i mod 9) in
  let b = Array.init 170 (fun i -> (i * 5) mod 9) in
  Alcotest.(check int) "multiword = generic" (Lcs.length ~eq:ieq a b) (Lcs.length_int a b)

let test_lcs_pairs_regression_above_old_budget () =
  (* The old [pairs] materialized the full DP table and silently returned
     [] when n * m exceeded a 16M-cell budget, so [lcs_merge] degraded to
     pure concatenation with no anchors.  Hirschberg backtracking has no
     such cliff: two near-identical 4100-element mains (16.8M cells) must
     still anchor on their common subsequence. *)
  let n = 4_100 in
  let a = Array.init n (fun i -> i mod 13) in
  let b = Array.init n (fun i -> if i mod 500 = 250 then 977 else i mod 13) in
  let expect = Lcs.length_int a b in
  Alcotest.(check bool) "old budget exceeded" true (n * n > 16_000_000);
  Alcotest.(check bool) "most elements anchor" true (expect > n - 20);
  let ps = Lcs.pairs_int a b in
  Alcotest.(check int) "pairs found above old budget" expect (List.length ps);
  List.iter (fun (i, j) -> if a.(i) <> b.(j) then Alcotest.fail "invalid pair") ps

(* qcheck: the int-specialized LCS entry points agree with the generic
   reference implementation *)
let int_pair_gen =
  QCheck.Gen.(
    let* n = 0 -- 60 in
    let* m = 0 -- 60 in
    let* alpha = 1 -- 6 in
    let arr k = array_repeat k (0 -- (alpha - 1)) in
    pair (arr n) (arr m))

let arb_int_pair =
  QCheck.make ~print:QCheck.Print.(pair (array int) (array int)) int_pair_gen

let prop_length_int_matches_generic =
  QCheck.Test.make ~name:"Lcs.length_int = Lcs.length" ~count:500 arb_int_pair (fun (a, b) ->
      Lcs.length_int a b = Lcs.length ~eq:ieq a b)

let prop_pairs_int_is_an_lcs =
  QCheck.Test.make ~name:"Lcs.pairs_int is a maximal common subsequence" ~count:500 arb_int_pair
    (fun (a, b) ->
      let ps = Lcs.pairs_int a b in
      let rec increasing prev = function
        | [] -> true
        | (i, j) :: rest ->
            (match prev with Some (pi, pj) -> i > pi && j > pj | None -> true)
            && a.(i) = b.(j)
            && increasing (Some (i, j)) rest
      in
      increasing None ps && List.length ps = Lcs.length ~eq:ieq a b)

let prop_normalized_int_matches_generic =
  QCheck.Test.make ~name:"normalized_distance_int = normalized_distance" ~count:500 arb_int_pair
    (fun (a, b) ->
      Float.abs (Lcs.normalized_distance_int a b -. Lcs.normalized_distance ~eq:ieq a b) < 1e-12)

let test_indel_triangle_bound () =
  let rng = Rng.create 29 in
  for _ = 1 to 100 do
    let mk () = Array.init (Rng.int rng 20) (fun _ -> Rng.int rng 4) in
    let a = mk () and b = mk () and c = mk () in
    let d x y = Lcs.indel_distance ~eq:ieq x y in
    if d a c > d a b + d b c then Alcotest.fail "triangle inequality violated"
  done

(* ------------------------------------------------------------------ *)
(* Terminal_table *)

let ev_send count = Event.Send { Event.rel_peer = 1; tag = 0; dt = D.Double; count }
let ev_barrier = Event.Barrier { comm = 0 }

let test_terminal_table_dedup () =
  let streams = [| [| ev_send 10; ev_barrier |]; [| ev_send 10; ev_barrier; ev_send 20 |] |] in
  let t = Terminal_table.build streams in
  Alcotest.(check int) "3 distinct" 3 (Terminal_table.size t);
  let seqs = Terminal_table.sequences t in
  Alcotest.(check bool) "shared ids" true (seqs.(0).(0) = seqs.(1).(0));
  Alcotest.(check bool) "shared barrier" true (seqs.(0).(1) = seqs.(1).(1))

let test_terminal_table_merge_steps () =
  let mk n = Terminal_table.build (Array.make n [| ev_barrier |]) in
  Alcotest.(check int) "1 rank" 0 (Terminal_table.merge_steps (mk 1));
  Alcotest.(check int) "8 ranks" 3 (Terminal_table.merge_steps (mk 8));
  Alcotest.(check int) "9 ranks" 4 (Terminal_table.merge_steps (mk 9))

(* ------------------------------------------------------------------ *)
(* Pipeline: losslessness *)

(* random SPMD-ish streams: a shared program skeleton with rank-dependent
   deviations, exactly the structure the merge is designed for *)
let random_streams rng nranks =
  let base_len = 5 + Rng.int rng 20 in
  let base =
    Array.init base_len (fun i ->
        match i mod 4 with
        | 0 -> Event.Compute (Rng.int rng 3)
        | 1 -> ev_send (10 * (1 + Rng.int rng 4))
        | 2 -> Event.Recv { Event.rel_peer = Rng.int rng nranks; tag = 0; dt = D.Int; count = 5 }
        | _ -> ev_barrier)
  in
  Array.init nranks (fun r ->
      let extra =
        if r mod 3 = 0 then [| ev_send 999 |]
        else if r mod 3 = 1 then [| ev_barrier; ev_barrier |]
        else [||]
      in
      let reps = 2 + (r mod 2) in
      Array.concat (List.init reps (fun _ -> base) @ [ extra ]))

let test_merge_lossless_random () =
  let rng = Rng.create 47 in
  for _ = 1 to 30 do
    let nranks = 2 + Rng.int rng 14 in
    let streams = random_streams rng nranks in
    let merged = MPipe.merge_streams ~nranks streams in
    Merged.validate merged;
    let table = Terminal_table.build streams in
    let seqs = Terminal_table.sequences table in
    for r = 0 to nranks - 1 do
      if Walk.expand_for_rank merged r <> seqs.(r) then
        Alcotest.failf "rank %d not reconstructed" r
    done
  done

let test_merge_identical_spmd_single_cluster () =
  let stream = Array.concat (List.init 10 (fun _ -> [| ev_send 10; ev_barrier |])) in
  let merged = MPipe.merge_streams ~nranks:16 (Array.make 16 stream) in
  Alcotest.(check int) "one cluster" 1 (Array.length merged.Merged.mains);
  List.iter
    (fun (e : Merged.mentry) ->
      Alcotest.(check int) "rank list = all" 16 (Rank_list.cardinal e.Merged.ranks))
    merged.Merged.mains.(0)

let test_merge_rank_lists_partition_variants () =
  (* even ranks do an extra barrier: the merged main must attribute it to
     exactly the even ranks *)
  let base = Array.concat (List.init 6 (fun _ -> [| ev_send 10; ev_barrier |])) in
  let streams =
    Array.init 8 (fun r -> if r mod 2 = 0 then Array.append base [| ev_send 77 |] else base)
  in
  let merged = MPipe.merge_streams ~nranks:8 streams in
  Merged.validate merged;
  let table = Terminal_table.build streams in
  let seqs = Terminal_table.sequences table in
  for r = 0 to 7 do
    Alcotest.(check bool) "lossless" true (Walk.expand_for_rank merged r = seqs.(r))
  done;
  (* the extra send appears with the even-rank list in some main *)
  let found = ref false in
  Array.iter
    (List.iter (fun (e : Merged.mentry) ->
         match Rank_list.shape ~nranks:8 e.Merged.ranks with
         | Rank_list.Strided (0, 6, 2) -> found := true
         | _ -> ()))
    merged.Merged.mains;
  Alcotest.(check bool) "even-rank stride attributed" true !found

let test_merge_nonterminal_sharing () =
  (* identical rule structure across ranks must be stored once *)
  let stream = Array.concat (List.init 50 (fun _ -> [| ev_send 10; ev_send 20; ev_barrier |])) in
  let merged = MPipe.merge_streams ~nranks:32 (Array.make 32 stream) in
  (* with full sharing, the rule count is what a single rank needs *)
  let single = MPipe.merge_streams ~nranks:1 [| stream |] in
  Alcotest.(check int) "rules shared across ranks"
    (Array.length single.Merged.rules)
    (Array.length merged.Merged.rules)

let test_merged_validate_catches_overlap () =
  let bad =
    {
      Merged.nranks = 2;
      terminals = [| ev_barrier |];
      rules = [||];
      mains = [| [ { Merged.sym = Siesta_grammar.Grammar.T 0; reps = 1; ranks = Rank_list.of_list [ 0; 1 ] } ] |];
      main_ranks = [| Rank_list.of_list [ 0; 0 ] |];
    }
  in
  (* rank 1 uncovered by main_ranks *)
  Alcotest.(check bool) "invalid coverage" true
    (match Merged.validate bad with exception Invalid_argument _ -> true | () -> false)

let test_merged_size_accounting () =
  let stream = Array.concat (List.init 10 (fun _ -> [| ev_send 10; ev_barrier |])) in
  let merged = MPipe.merge_streams ~nranks:4 (Array.make 4 stream) in
  Alcotest.(check bool) "bytes positive" true (Merged.serialized_bytes merged > 0);
  Alcotest.(check bool) "stats readable" true (String.length (Merged.stats merged) > 0)

let test_cluster_of_rank () =
  let stream = [| ev_barrier |] in
  let merged = MPipe.merge_streams ~nranks:4 (Array.make 4 stream) in
  for r = 0 to 3 do
    Alcotest.(check int) "cluster 0" 0 (Merged.cluster_of_rank merged r)
  done;
  Alcotest.check_raises "unknown rank" Not_found (fun () ->
      ignore (Merged.cluster_of_rank merged 9))

let test_many_variant_clusters () =
  (* Regression for the O(k^2) cluster accumulation (`!clusters @ [c]`):
     every rank gets its own dissimilar main, so with threshold 0 each
     becomes its own cluster.  Checks cluster count, creation order
     (first-rank order, as the list-based code produced) and
     losslessness. *)
  let nranks = 160 in
  let streams =
    Array.init nranks (fun r ->
        Array.init 6 (fun k -> Event.Compute ((r * 6) + k)))
  in
  let config = { MPipe.default_config with MPipe.cluster_threshold = 0.0 } in
  let merged = MPipe.merge_streams ~config ~nranks streams in
  Merged.validate merged;
  Alcotest.(check int) "one cluster per variant" nranks (Array.length merged.Merged.mains);
  Array.iteri
    (fun i rl ->
      Alcotest.(check (list int)) (Printf.sprintf "cluster %d order" i) [ i ]
        (Rank_list.to_list rl))
    merged.Merged.main_ranks;
  let seqs = Terminal_table.sequences (Terminal_table.build streams) in
  for r = 0 to nranks - 1 do
    if Walk.expand_for_rank merged r <> seqs.(r) then Alcotest.failf "rank %d lost" r
  done

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let rank_list_gen = QCheck.Gen.(list_size (0 -- 20) (0 -- 40))

let arb_rank_list =
  QCheck.make ~print:QCheck.Print.(list int) rank_list_gen

let prop_union_commutative =
  QCheck.Test.make ~name:"rank-list union commutative" ~count:200
    (QCheck.pair arb_rank_list arb_rank_list) (fun (a, b) ->
      let a = Rank_list.of_list a and b = Rank_list.of_list b in
      Rank_list.equal (Rank_list.union a b) (Rank_list.union b a))

let prop_union_associative =
  QCheck.Test.make ~name:"rank-list union associative" ~count:200
    (QCheck.triple arb_rank_list arb_rank_list arb_rank_list) (fun (a, b, c) ->
      let a = Rank_list.of_list a and b = Rank_list.of_list b and c = Rank_list.of_list c in
      Rank_list.equal
        (Rank_list.union a (Rank_list.union b c))
        (Rank_list.union (Rank_list.union a b) c))

let prop_union_membership =
  QCheck.Test.make ~name:"rank-list union = set union" ~count:200
    (QCheck.pair arb_rank_list arb_rank_list) (fun (a, b) ->
      let u = Rank_list.union (Rank_list.of_list a) (Rank_list.of_list b) in
      List.for_all (fun r -> Rank_list.mem u r = (List.mem r a || List.mem r b))
        (List.init 41 Fun.id))

(* random SPMD-ish stream bundles for the merge-losslessness property *)
let stream_bundle_gen =
  QCheck.Gen.(
    let event_gen =
      frequency
        [
          (3, map (fun c -> Event.Compute c) (0 -- 2));
          (3, map (fun c -> ev_send (8 * (1 + c))) (0 -- 4));
          ( 2,
            map
              (fun p -> Event.Recv { Event.rel_peer = p; tag = 0; dt = D.Int; count = 4 })
              (0 -- 7) );
          (1, return ev_barrier);
          (1, map (fun c -> Event.Allreduce { comm = 0; dt = D.Double; count = 1 + c;
                                              op = Siesta_mpi.Op.Sum }) (0 -- 2));
        ]
    in
    let* nranks = 2 -- 10 in
    let* base = list_size (2 -- 15) event_gen in
    let* reps = 1 -- 5 in
    let* variant_period = 2 -- 4 in
    let base = Array.of_list base in
    let body = Array.concat (List.init reps (fun _ -> base)) in
    return
      ( nranks,
        Array.init nranks (fun r ->
            if r mod variant_period = 0 then Array.append body [| ev_send 999 |] else body) ))

let arb_bundle =
  QCheck.make
    ~print:(fun (n, streams) ->
      Printf.sprintf "%d ranks, %d events/rank" n (Array.length streams.(0)))
    stream_bundle_gen

let prop_merge_lossless =
  QCheck.Test.make ~name:"merge reconstructs every rank (qcheck)" ~count:150 arb_bundle
    (fun (nranks, streams) ->
      let merged = MPipe.merge_streams ~nranks streams in
      Merged.validate merged;
      let seqs = Terminal_table.sequences (Terminal_table.build streams) in
      Array.for_all Fun.id
        (Array.init nranks (fun r -> Walk.expand_for_rank merged r = seqs.(r))))

let prop_merge_size_bounded =
  QCheck.Test.make ~name:"merged size never exceeds raw streams" ~count:150 arb_bundle
    (fun (nranks, streams) ->
      let merged = MPipe.merge_streams ~nranks streams in
      let raw =
        Array.fold_left
          (fun acc evs ->
            Array.fold_left (fun acc ev -> acc + Event.serialized_bytes ev + 6) acc evs)
          0 streams
      in
      Merged.serialized_bytes merged <= raw + 1024)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_union_commutative;
      prop_union_associative;
      prop_union_membership;
      prop_merge_lossless;
      prop_merge_size_bounded;
      prop_length_int_matches_generic;
      prop_pairs_int_is_an_lcs;
      prop_normalized_int_matches_generic;
    ]

let suite =
  qcheck_tests
  @ [
    ("rank list basics", `Quick, test_rank_list_basics);
    ("rank list union", `Quick, test_rank_list_union);
    ("rank list shapes", `Quick, test_rank_list_shapes);
    ("rank list union randomized", `Quick, test_rank_list_union_preserves_sortedness);
    ("lcs known cases", `Quick, test_lcs_known);
    ("lcs int-specialized known cases", `Quick, test_lcs_int_known);
    ("lcs pairs above the old cell budget", `Quick, test_lcs_pairs_regression_above_old_budget);
    ("indel distance", `Quick, test_indel_distance);
    ("indel distance triangle bound", `Quick, test_indel_triangle_bound);
    ("terminal table dedups across ranks", `Quick, test_terminal_table_dedup);
    ("terminal table merge steps", `Quick, test_terminal_table_merge_steps);
    ("merge is lossless on random SPMD streams", `Quick, test_merge_lossless_random);
    ("identical SPMD merges to one cluster", `Quick, test_merge_identical_spmd_single_cluster);
    ("rank lists attribute variant symbols", `Quick, test_merge_rank_lists_partition_variants);
    ("non-terminals shared across ranks", `Quick, test_merge_nonterminal_sharing);
    ("merged validate catches bad coverage", `Quick, test_merged_validate_catches_overlap);
    ("merged size accounting", `Quick, test_merged_size_accounting);
    ("cluster_of_rank", `Quick, test_cluster_of_rank);
    ("many dissimilar variants cluster in order", `Quick, test_many_variant_clusters);
  ]

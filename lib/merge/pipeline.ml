module Grammar = Siesta_grammar.Grammar
module Sequitur = Siesta_grammar.Sequitur
module Trace_io = Siesta_trace.Trace_io
module Soa = Siesta_trace.Soa
module Span = Siesta_obs.Span
module Metrics = Siesta_obs.Metrics
module Log = Siesta_obs.Log

type config = { rle : bool; cluster_threshold : float }

let default_config = { rle = true; cluster_threshold = 0.35 }

(* ------------------------------------------------------------------ *)
(* Interned entry keys.

   Every hot structure below used to key hash tables by strings built
   with [Printf]/[String.concat] ("T3^2 N1^4 ..."), and to run the LCS on
   boxed records compared with polymorphic [=].  Both are replaced by a
   packed-int encoding of a body entry: the symbol's integer encoding
   (2v for terminals, 2i+1 for rule references — ids are global after the
   non-terminal merge) shifted over the repetition count.  The packing is
   injective, so int equality on packed ids is exactly entry equality,
   rule bodies become [int array]s keyed directly in hash tables, and the
   LCS runs on immediates. *)

let max_packable = 1 lsl 31

let pack_entry enc reps =
  if enc >= max_packable || reps >= max_packable then
    invalid_arg "Merge_pipeline: symbol id or repetition count exceeds packable range";
  (enc lsl 31) lor reps

(* ------------------------------------------------------------------ *)
(* Non-terminal merging (Section 2.6.2, first half)                     *)

type nt_merge = {
  global_rules : Grammar.rule array;
  (* per rank: local rule id -> global rule id *)
  rule_maps : int array array;
}

let body_key body =
  Array.of_list
    (List.map (fun { Grammar.sym; reps } -> pack_entry (Grammar.symbol_code sym) reps) body)

(* One sequential pass per depth over all ranks, deduping bodies into a
   first-occurrence global numbering: depth-major, then first occurrence
   in rank order.  A body's non-terminal references are remapped to
   global ids before it is keyed, which is why shallower depths go
   first. *)
let merge_nonterminals (grammars : Grammar.t array) =
  let table : (int array, int) Hashtbl.t = Hashtbl.create 256 in
  let bodies_rev = ref [] in
  let count = ref 0 in
  let depths = Array.map Grammar.depth grammars in
  let max_depth = Array.fold_left (fun acc d -> Array.fold_left max acc d) 0 depths in
  let rule_maps = Array.map (fun g -> Array.make (Array.length g.Grammar.rules) (-1)) grammars in
  let remap_body rank body =
    List.map
      (fun ({ Grammar.sym; _ } as e) ->
        match sym with
        | Grammar.T _ -> e
        | Grammar.N local ->
            let g = rule_maps.(rank).(local) in
            assert (g >= 0);
            { e with Grammar.sym = Grammar.N g })
      body
  in
  for d = 1 to max_depth do
    Array.iteri
      (fun rank g ->
        Array.iteri
          (fun local body ->
            if depths.(rank).(local) = d then begin
              let body' = remap_body rank body in
              let key = body_key body' in
              match Hashtbl.find_opt table key with
              | Some gid -> rule_maps.(rank).(local) <- gid
              | None ->
                  let gid = !count in
                  incr count;
                  Hashtbl.replace table key gid;
                  bodies_rev := body' :: !bodies_rev;
                  rule_maps.(rank).(local) <- gid
            end)
          g.Grammar.rules)
      grammars
  done;
  { global_rules = Array.of_list (List.rev !bodies_rev); rule_maps }

(* ------------------------------------------------------------------ *)
(* Main-rule merging (Section 2.6.2, second half)                       *)

(* A main-rule position before rank attribution. *)
type pos = { p_sym : Grammar.symbol; p_reps : int }

let id_of_pos p = pack_entry (Grammar.symbol_code p.p_sym) p.p_reps

let id_of_mentry (e : Merged.mentry) =
  pack_entry (Grammar.symbol_code e.Merged.sym) e.Merged.reps

let positions_of_main rule_map main =
  Array.of_list
    (List.map
       (fun { Grammar.sym; reps } ->
         let sym =
           match sym with
           | Grammar.T _ -> sym
           | Grammar.N local -> Grammar.N rule_map.(local)
         in
         { p_sym = sym; p_reps = reps })
       main)

(* Merge a variant (with its rank set) into an already-merged entry list:
   LCS positions get the union of rank lists; the rest interleaves in
   original order (a's gap before b's gap between anchors).  The LCS runs
   on the interned entry ids of both sides. *)
let lcs_merge (merged : Merged.mentry list) (variant : pos array) (vids : int array)
    (vranks : Rank_list.t) : Merged.mentry list =
  let a = Array.of_list merged in
  let a_ids = Array.map id_of_mentry a in
  let matches = Lcs.pairs_int a_ids vids in
  let out = ref [] in
  let emit_a i = out := a.(i) :: !out in
  let emit_b j =
    out := { Merged.sym = variant.(j).p_sym; reps = variant.(j).p_reps; ranks = vranks } :: !out
  in
  let emit_match i =
    out := { a.(i) with Merged.ranks = Rank_list.union a.(i).Merged.ranks vranks } :: !out
  in
  let ai = ref 0 and bj = ref 0 in
  List.iter
    (fun (mi, mj) ->
      while !ai < mi do
        emit_a !ai;
        incr ai
      done;
      while !bj < mj do
        emit_b !bj;
        incr bj
      done;
      emit_match mi;
      ai := mi + 1;
      bj := mj + 1)
    matches;
  while !ai < Array.length a do
    emit_a !ai;
    incr ai
  done;
  while !bj < Array.length variant do
    emit_b !bj;
    incr bj
  done;
  List.rev !out

module Itbl = Hashtbl.Make (Int)

type cluster = {
  rep_ids : int array;  (* interned ids of the first variant seen *)
  mutable entries : Merged.mentry list;
  mutable ranks : Rank_list.t;
}

let merge_mains ~threshold (mains : pos array array) (main_ids : int array array) =
  (* Group exactly-equal mains first: in SPMD programs the overwhelming
     majority of ranks share one main verbatim, so the LCS only ever runs
     on the handful of distinct variants.  Keys are the per-rank interned
     id arrays. *)
  let exact : (int array, int list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun rank ids ->
      match Hashtbl.find_opt exact ids with
      | Some l -> l := rank :: !l
      | None -> Hashtbl.add exact ids (ref [ rank ]))
    main_ids;
  (* distinct variants, each with its rank set, in first-rank order *)
  let variants =
    Hashtbl.fold (fun _ ranks acc -> !ranks :: acc) exact []
    |> List.map (fun ranks ->
           let ranks = List.sort compare ranks in
           let first = List.hd ranks in
           (mains.(first), main_ids.(first), Rank_list.of_list ranks))
    |> List.sort (fun (_, _, r1) (_, _, r2) ->
           compare (Rank_list.to_list r1) (Rank_list.to_list r2))
  in
  (* Clusters live in a growable array: order is creation order (the
     variant scan below searches oldest-first, as the original list-based
     code did) and appending is O(1) amortized — the previous
     [!clusters @ [c]] rebuild made cluster growth O(k^2). *)
  let clusters = ref [||] in
  let ncl = ref 0 in
  let push c =
    let cap = Array.length !clusters in
    if !ncl = cap then begin
      let bigger = Array.make (max 4 (2 * cap)) c in
      Array.blit !clusters 0 bigger 0 cap;
      clusters := bigger
    end;
    !clusters.(!ncl) <- c;
    incr ncl
  in
  (* An LCS is never longer than the multiset intersection [h] of its
     inputs, so (n + m - 2h) / (n + m), computed with the same float
     expression as [Lcs.normalized_distance_int], is a lower bound on the
     distance: the LCS only runs for pairs this bound cannot rule out.
     Of StirTurb@512's 130,816 pairs of distinct mains, one gets past it.

     [h] against every cluster comes from one pass over the variant: an
     inverted index maps each entry id to the clusters whose first main
     holds it, with its multiplicity there, and each run of equal ids in
     the sorted variant adds its min with that multiplicity to
     [common.(c)]. *)
  let index : (int * int) list Itbl.t = Itbl.create 1024 in
  let common = Array.make (List.length variants) 0 in
  (* [f x k] for each distinct [x] of ascending [a], [k] its count *)
  let iter_runs f a =
    let n = Array.length a in
    let i = ref 0 in
    while !i < n do
      let x = a.(!i) in
      let j = ref (!i + 1) in
      while !j < n && a.(!j) = x do
        incr j
      done;
      f x (!j - !i);
      i := !j
    done
  in
  let count_common sorted =
    Array.fill common 0 !ncl 0;
    iter_runs
      (fun x k ->
        match Itbl.find_opt index x with
        | Some postings ->
            List.iter
              (fun (c, kc) -> common.(c) <- common.(c) + if k < kc then k else kc)
              postings
        | None -> ())
      sorted
  in
  let find_close ids =
    let rec go i =
      if i >= !ncl then None
      else
        let c = !clusters.(i) in
        let total = Array.length c.rep_ids + Array.length ids in
        let h = common.(i) in
        let bound =
          if total = 0 then 0.0 else float_of_int (total - (2 * h)) /. float_of_int total
        in
        if bound <= threshold && Lcs.normalized_distance_int c.rep_ids ids <= threshold then Some c
        else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun (ps, ids, ranks) ->
      let sorted = Array.copy ids in
      Array.sort Int.compare sorted;
      count_common sorted;
      match find_close ids with
      | Some c ->
          c.entries <- lcs_merge c.entries ps ids ranks;
          c.ranks <- Rank_list.union c.ranks ranks
      | None ->
          let entries =
            Array.to_list
              (Array.map (fun p -> { Merged.sym = p.p_sym; reps = p.p_reps; ranks }) ps)
          in
          let c = !ncl in
          iter_runs
            (fun x k ->
              Itbl.replace index x ((c, k) :: Option.value ~default:[] (Itbl.find_opt index x)))
            sorted;
          push { rep_ids = ids; entries; ranks })
    variants;
  ( Array.init !ncl (fun i -> !clusters.(i).entries),
    Array.init !ncl (fun i -> !clusters.(i).ranks) )

(* ------------------------------------------------------------------ *)

(* From per-rank grammars over the canonical terminal numbering to the
   merged program grammar.  [shapes] is the number of Sequitur runs that
   built [grammars]. *)
let merge_grammars ~config ~nranks ~terminals ~shapes grammars =
  let { global_rules; rule_maps } =
    Span.with_ ~cat:"merge" "merge.nonterminals" (fun () -> merge_nonterminals grammars)
  in
  let mains, main_ids =
    Span.with_ ~cat:"merge" "merge.position" (fun () ->
        let mains =
          Array.mapi (fun r g -> positions_of_main rule_maps.(r) g.Grammar.main) grammars
        in
        (mains, Array.map (Array.map id_of_pos) mains))
  in
  let mains, main_ranks =
    Span.with_ ~cat:"merge" "merge.mains" (fun () ->
        merge_mains ~threshold:config.cluster_threshold mains main_ids)
  in
  if Metrics.enabled () then begin
    Metrics.incr (Metrics.counter "merge.shapes") shapes;
    Metrics.incr (Metrics.counter "merge.rules_global") (Array.length global_rules);
    Metrics.incr (Metrics.counter "merge.clusters") (Array.length mains)
  end;
  Log.debug (fun () ->
      ( "merge.done",
        [
          ("nranks", string_of_int nranks);
          ("shapes", string_of_int shapes);
          ("rules", string_of_int (Array.length global_rules));
          ("clusters", string_of_int (Array.length mains));
        ] ));
  { Merged.nranks; terminals; rules = global_rules; mains; main_ranks }

let merge_streams ?(config = default_config) ~nranks streams =
  if Array.length streams <> nranks then invalid_arg "Pipeline.merge_streams: stream count";
  Span.with_ ~cat:"pipeline" ~attrs:[ ("nranks", string_of_int nranks) ] "merge" @@ fun () ->
  if Metrics.enabled () then begin
    Metrics.incr (Metrics.counter "merge.invocations") 1;
    Metrics.incr
      (Metrics.counter "merge.events_in")
      (Array.fold_left (fun a s -> a + Array.length s) 0 streams)
  end;
  let table = Span.with_ ~cat:"merge" "merge.terminal_table" (fun () -> Terminal_table.build streams) in
  let seqs = Terminal_table.sequences table in
  let grammars =
    Span.with_ ~cat:"merge" "merge.sequitur" (fun () ->
        Array.map (Sequitur.of_seq ~rle:config.rle) seqs)
  in
  merge_grammars ~config ~nranks ~terminals:(Terminal_table.terminals table) ~shapes:nranks
    grammars

(* ------------------------------------------------------------------ *)
(* Per-rank grammars of a packed trace                                  *)

(* Canonicalize terminal codes.  Record-time interning numbers events in
   engine-interleaving order; the batch path numbers them by first
   occurrence scanning rank 0, 1, … ({!Terminal_table.build}).  One
   sequential integer scan over the code buffers rebuilds that exact
   numbering: [canon.(c)] is code [c]'s canonical id, or -1 if no rank
   uses [c]. *)
let canonical_ids (pk : Trace_io.packed) =
  let canon = Array.make (Array.length pk.Trace_io.p_defs) (-1) in
  let n = ref 0 in
  Array.iter
    (Soa.iter (fun c ->
         if canon.(c) < 0 then begin
           canon.(c) <- !n;
           incr n
         end))
    pk.Trace_io.p_codes;
  (canon, !n)

(* Two ranks share a shape when a bijection of event codes maps one's
   stream onto the other's.  Sequitur's construction commutes with such
   renamings ({!Grammar.map_terminals}), so only the first rank of each
   shape, its leader, runs Sequitur; every later rank of the shape
   renames the terminals of the leader's grammar.  A hash of the stream
   under first-occurrence renaming, with the length, only picks the
   candidate leaders: a rank shares a grammar after an exact check that
   a bijection maps the leader's codes onto its own.  Returns the
   grammars over the canonical numbering and the number of leaders. *)
let shape_grammars ~rle canon (codes : Soa.buf array) =
  let ndefs = Array.length canon in
  let code_of = Array.make ndefs 0 in
  Array.iteri (fun c id -> if id >= 0 then code_of.(id) <- c) canon;
  (* Code -> code maps, -1 where unset.  Each use records the codes it
     sets in [touched] and resets only those. *)
  let local = Array.make ndefs (-1) and fwd = Array.make ndefs (-1) in
  let bwd = Array.make ndefs (-1) and touched = Array.make ndefs 0 in
  let shape_hash b =
    let h = ref 0 and n = ref 0 in
    for i = 0 to Soa.length b - 1 do
      let c = Soa.unsafe_get b i in
      if local.(c) < 0 then begin
        local.(c) <- !n;
        touched.(!n) <- c;
        incr n
      end;
      let x = (!h lxor local.(c)) * 0x2545F4914F6CDD1D in
      h := x lxor (x lsr 29)
    done;
    for k = 0 to !n - 1 do
      local.(touched.(k)) <- -1
    done;
    !h
  in
  (* The leader's grammar renamed for [b], if [fwd] (leader code -> code
     of [b]) and [bwd] (its inverse) stay functions along both streams. *)
  let renamed b (leader, g) =
    let len = Soa.length b in
    let n = ref 0 and i = ref 0 and ok = ref (Soa.length leader = len) in
    while !ok && !i < len do
      let x = Soa.unsafe_get leader !i and y = Soa.unsafe_get b !i in
      if fwd.(x) < 0 && bwd.(y) < 0 then begin
        fwd.(x) <- y;
        bwd.(y) <- x;
        touched.(!n) <- x;
        incr n
      end
      else ok := fwd.(x) = y && bwd.(y) = x;
      incr i
    done;
    let g =
      if !ok then Some (Grammar.map_terminals (fun t -> canon.(fwd.(code_of.(t)))) g) else None
    in
    for k = 0 to !n - 1 do
      let x = touched.(k) in
      bwd.(fwd.(x)) <- -1;
      fwd.(x) <- -1
    done;
    g
  in
  let leaders = Hashtbl.create 16 in
  let shapes = ref 0 in
  (* One builder, reset per leader, so its arrays grow once rather
     than once per shape. *)
  let s = Sequitur.create ~rle () in
  let grammars =
    Array.map
      (fun b ->
        let key = (Soa.length b, shape_hash b) in
        let candidates = Option.value ~default:[] (Hashtbl.find_opt leaders key) in
        match List.find_map (renamed b) candidates with
        | Some g -> g
        | None ->
            Sequitur.reset s;
            Soa.iter (fun c -> Sequitur.push s canon.(c)) b;
            let g = Sequitur.finalize s in
            Hashtbl.replace leaders key ((b, g) :: candidates);
            incr shapes;
            g)
      codes
  in
  (grammars, !shapes)

let rank_grammars ~rle (pk : Trace_io.packed) =
  fst (shape_grammars ~rle (fst (canonical_ids pk)) pk.Trace_io.p_codes)

let merge_packed ?(config = default_config) (pk : Trace_io.packed) =
  let nranks = pk.Trace_io.p_nranks in
  if Array.length pk.Trace_io.p_codes <> nranks then
    invalid_arg "Pipeline.merge_packed: stream count";
  Span.with_ ~cat:"pipeline" ~attrs:[ ("nranks", string_of_int nranks) ] "merge" @@ fun () ->
  if Metrics.enabled () then begin
    Metrics.incr (Metrics.counter "merge.invocations") 1;
    Metrics.incr (Metrics.counter "merge.events_in") (Trace_io.packed_total_events pk)
  end;
  let defs = pk.Trace_io.p_defs in
  let canon, n_canon = Span.with_ ~cat:"merge" "merge.canon" (fun () -> canonical_ids pk) in
  let terminals =
    if n_canon = 0 then [||]
    else begin
      let t = Array.make n_canon defs.(0) in
      Array.iteri (fun c id -> if id >= 0 then t.(id) <- defs.(c)) canon;
      t
    end
  in
  let grammars, shapes =
    Span.with_ ~cat:"merge" "merge.sequitur" (fun () ->
        shape_grammars ~rle:config.rle canon pk.Trace_io.p_codes)
  in
  merge_grammars ~config ~nranks ~terminals ~shapes grammars

module Merged = Siesta_merge.Merged
module Rank_list = Siesta_merge.Rank_list
module Grammar = Siesta_grammar.Grammar
module Event = Siesta_trace.Event
module Call = Siesta_mpi.Call
module Datatype = Siesta_mpi.Datatype
module Op = Siesta_mpi.Op
module Mpi_impl = Siesta_platform.Mpi_impl
module Json = Siesta_obs.Json
module Metrics = Siesta_obs.Metrics

type report = {
  k_nranks : int;
  k_impl : string;
  k_eager_threshold : int;
  k_sends : int;
  k_recvs : int;
  k_wildcard_recvs : int;
  k_rdv_sends : int;
  k_collectives : int;
  k_unmatched_sends : int;
  k_unmatched_recvs : int;
  k_deadlock_cycles : int;
  k_collective_mismatches : int;
  k_reasons : string list;
}

type verdict = Clean | Violated of string list

let verdict r = if r.k_reasons = [] then Clean else Violated r.k_reasons

let verdict_name = function Clean -> "clean" | Violated _ -> "violated"

(* ------------------------------------------------------------------ *)
(* Integral bipartite max-flow over matching classes.  Class counts can
   be large (one class covers thousands of identical messages), so this
   is flow with capacities, not unit matching: Edmonds-Karp augments by
   the path bottleneck, and the class graph is tiny (distinct (src,tag)
   pairs per destination), so the quadratic node scan never matters. *)

let max_flow ~ns ~nr ~scap ~rcap ~compat =
  let n = ns + nr + 2 in
  let source = ns + nr and sink = ns + nr + 1 in
  let cap = Array.make_matrix n n 0 in
  Array.iteri (fun i c -> cap.(source).(i) <- c) scap;
  Array.iteri (fun j c -> cap.(ns + j).(sink) <- c) rcap;
  for i = 0 to ns - 1 do
    for j = 0 to nr - 1 do
      if compat i j then cap.(i).(ns + j) <- max_int / 2
    done
  done;
  let continue = ref true in
  while !continue do
    let prev = Array.make n (-1) in
    prev.(source) <- source;
    let q = Queue.create () in
    Queue.add source q;
    let found = ref false in
    while (not (Queue.is_empty q)) && not !found do
      let u = Queue.pop q in
      for v = 0 to n - 1 do
        if prev.(v) < 0 && cap.(u).(v) > 0 then begin
          prev.(v) <- u;
          if v = sink then found := true else Queue.add v q
        end
      done
    done;
    if not !found then continue := false
    else begin
      let rec bottleneck v acc =
        if v = source then acc
        else bottleneck prev.(v) (min acc cap.(prev.(v)).(v))
      in
      let f = bottleneck sink max_int in
      let rec apply v =
        if v <> source then begin
          let u = prev.(v) in
          cap.(u).(v) <- cap.(u).(v) - f;
          cap.(v).(u) <- cap.(v).(u) + f;
          apply u
        end
      in
      apply sink
    end
  done;
  cap

(* ------------------------------------------------------------------ *)

(* One collective occurrence, reduced to what must agree across the
   participating ranks: kind, root, reduction operator.  Counts are
   deliberately excluded (Alltoallv legitimately varies per rank). *)
let coll_sig name ~root ~op =
  match (root, op) with
  | -1, "" -> name
  | -1, op -> Printf.sprintf "%s(op=%s)" name op
  | root, "" -> Printf.sprintf "%s(root=%d)" name root
  | root, op -> Printf.sprintf "%s(root=%d,op=%s)" name root op

let world_comm = 0

let check ~impl (m : Merged.t) =
  let n = m.Merged.nranks in
  let thr = impl.Mpi_impl.eager_threshold_bytes in
  (* Point-to-point traffic travels on the world communicator.
     (src, dst, tag) -> send occurrences,
     (pos, is-rendezvous-blocking), reverse program order *)
  let sends : (int * int * int, (int * bool) list ref) Hashtbl.t = Hashtbl.create 64 in
  (* (dst, src, tag) -> explicit recv occurrences, (pos, is-blocking) *)
  let recvs : (int * int * int, (int * bool) list ref) Hashtbl.t = Hashtbl.create 64 in
  (* (dst, src pattern, tag pattern) -> wildcard recv count *)
  let wilds : (int * int option * int option, int ref) Hashtbl.t = Hashtbl.create 8 in
  (* comm -> rank -> collective signatures, reverse program order *)
  let colls : (int, (int, string list ref) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let blocking = Array.make n [] in
  let sends_total = ref 0
  and recvs_total = ref 0
  and wild_total = ref 0
  and rdv_total = ref 0
  and coll_total = ref 0 in
  let root_violations : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let push tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some l -> l := v :: !l
    | None -> Hashtbl.add tbl key (ref [ v ])
  in
  for r = 0 to n - 1 do
    let add_send ~blocks pos (p : Event.p2p) =
      incr sends_total;
      let dst = (r + p.Event.rel_peer) mod n in
      let rdv = blocks && Datatype.bytes p.Event.dt ~count:p.Event.count > thr in
      if rdv then begin
        incr rdv_total;
        blocking.(r) <- pos :: blocking.(r)
      end;
      push sends (r, dst, p.Event.tag) (pos, rdv)
    in
    let add_recv ~blocks pos (p : Event.p2p) =
      incr recvs_total;
      if p.Event.rel_peer = Call.any_source || p.Event.tag = Call.any_tag then begin
        incr wild_total;
        let sp =
          if p.Event.rel_peer = Call.any_source then None
          else Some ((r + p.Event.rel_peer) mod n)
        and tp = if p.Event.tag = Call.any_tag then None else Some p.Event.tag in
        match Hashtbl.find_opt wilds (r, sp, tp) with
        | Some c -> incr c
        | None -> Hashtbl.add wilds (r, sp, tp) (ref 1)
      end
      else begin
        let src = (r + p.Event.rel_peer) mod n in
        if blocks then blocking.(r) <- pos :: blocking.(r);
        push recvs (r, src, p.Event.tag) (pos, blocks)
      end
    in
    let add_coll comm sg =
      incr coll_total;
      let per_rank =
        match Hashtbl.find_opt colls comm with
        | Some t -> t
        | None ->
            let t = Hashtbl.create 8 in
            Hashtbl.add colls comm t;
            t
      in
      push per_rank r sg
    in
    let check_root comm name root =
      if comm = world_comm && (root < 0 || root >= n) then
        Hashtbl.replace root_violations
          (Printf.sprintf
             "collective root out of range: %s root %d on comm %d (nranks %d)"
             name root comm n)
          ()
    in
    (* a position is the index of the occurrence in the rank's expansion *)
    let next = ref 0 in
    Merged.iter_rank
      (fun tid ->
        let pos = !next in
        next := pos + 1;
        match m.Merged.terminals.(tid) with
        | Event.Send p -> add_send ~blocks:true pos p
        | Event.Isend (p, _) -> add_send ~blocks:false pos p
        | Event.Recv p -> add_recv ~blocks:true pos p
        | Event.Irecv (p, _) -> add_recv ~blocks:false pos p
        | Event.Sendrecv { send; recv } ->
            add_send ~blocks:false pos send;
            add_recv ~blocks:false pos recv
        | Event.Barrier { comm } -> add_coll comm (coll_sig "Barrier" ~root:(-1) ~op:"")
        | Event.Bcast { comm; root; _ } ->
            check_root comm "Bcast" root;
            add_coll comm (coll_sig "Bcast" ~root ~op:"")
        | Event.Reduce { comm; root; op; _ } ->
            check_root comm "Reduce" root;
            add_coll comm (coll_sig "Reduce" ~root ~op:(Op.name op))
        | Event.Allreduce { comm; op; _ } ->
            add_coll comm (coll_sig "Allreduce" ~root:(-1) ~op:(Op.name op))
        | Event.Alltoall { comm; _ } -> add_coll comm (coll_sig "Alltoall" ~root:(-1) ~op:"")
        | Event.Alltoallv { comm; _ } ->
            add_coll comm (coll_sig "Alltoallv" ~root:(-1) ~op:"")
        | Event.Allgather { comm; _ } ->
            add_coll comm (coll_sig "Allgather" ~root:(-1) ~op:"")
        | Event.Gather { comm; root; _ } ->
            check_root comm "Gather" root;
            add_coll comm (coll_sig "Gather" ~root ~op:"")
        | Event.Scatter { comm; root; _ } ->
            check_root comm "Scatter" root;
            add_coll comm (coll_sig "Scatter" ~root ~op:"")
        | Event.Scan { comm; op; _ } ->
            add_coll comm (coll_sig "Scan" ~root:(-1) ~op:(Op.name op))
        | Event.Exscan { comm; op; _ } ->
            add_coll comm (coll_sig "Exscan" ~root:(-1) ~op:(Op.name op))
        | Event.Reduce_scatter { comm; op; _ } ->
            add_coll comm (coll_sig "Reduce_scatter" ~root:(-1) ~op:(Op.name op))
        | Event.Ibarrier { comm; _ } ->
            add_coll comm (coll_sig "Ibarrier" ~root:(-1) ~op:"")
        | Event.Ibcast { comm; root; _ } ->
            check_root comm "Ibcast" root;
            add_coll comm (coll_sig "Ibcast" ~root ~op:"")
        | Event.Iallreduce { comm; op; _ } ->
            add_coll comm (coll_sig "Iallreduce" ~root:(-1) ~op:(Op.name op))
        | Event.Comm_split { comm; _ } ->
            add_coll comm (coll_sig "Comm_split" ~root:(-1) ~op:"")
        | Event.Comm_dup { comm; _ } -> add_coll comm (coll_sig "Comm_dup" ~root:(-1) ~op:"")
        | Event.Comm_free _ | Event.Wait _ | Event.Waitall _
        | Event.File_open _ | Event.File_close _ | Event.File_write_all _
        | Event.File_read_all _ | Event.File_write_at _ | Event.File_read_at _
        | Event.Compute _ ->
            ())
      m r
  done;
  (* --- check 1: matching completeness per destination -------------- *)
  (* a send can only ever match a recv its destination posts, so the
     flow problem decomposes per destination rank *)
  let dsts = Hashtbl.create n in
  Hashtbl.iter (fun (_, dst, _) _ -> Hashtbl.replace dsts dst ()) sends;
  Hashtbl.iter (fun (dst, _, _) _ -> Hashtbl.replace dsts dst ()) recvs;
  Hashtbl.iter (fun (dst, _, _) _ -> Hashtbl.replace dsts dst ()) wilds;
  let unmatched_send_reasons = ref []
  and unmatched_recv_reasons = ref []
  and unmatched_sends = ref 0
  and unmatched_recvs = ref 0 in
  Hashtbl.iter
    (fun dst () ->
      let sclasses = ref [] in
      Hashtbl.iter
        (fun (src, d, tag) l ->
          if d = dst then sclasses := (src, tag, List.length !l) :: !sclasses)
        sends;
      let rclasses = ref [] in
      Hashtbl.iter
        (fun (d, src, tag) l ->
          if d = dst then rclasses := (Some src, Some tag, List.length !l) :: !rclasses)
        recvs;
      Hashtbl.iter
        (fun (d, sp, tp) cnt -> if d = dst then rclasses := (sp, tp, !cnt) :: !rclasses)
        wilds;
      let sc = Array.of_list (List.sort compare !sclasses)
      and rc = Array.of_list (List.sort compare !rclasses) in
      let ns = Array.length sc and nr = Array.length rc in
      let cap =
        max_flow ~ns ~nr
          ~scap:(Array.map (fun (_, _, c) -> c) sc)
          ~rcap:(Array.map (fun (_, _, c) -> c) rc)
          ~compat:(fun i j ->
            let src, tag, _ = sc.(i) and sp, tp, _ = rc.(j) in
            (sp = None || sp = Some src) && (tp = None || tp = Some tag))
      in
      let source = ns + nr and sink = ns + nr + 1 in
      Array.iteri
        (fun i (src, tag, _) ->
          let left = cap.(source).(i) in
          if left > 0 then begin
            unmatched_sends := !unmatched_sends + left;
            unmatched_send_reasons :=
              Printf.sprintf "unmatched send: rank %d -> rank %d tag %d x%d" src dst tag left
              :: !unmatched_send_reasons
          end)
        sc;
      Array.iteri
        (fun j (sp, tp, _) ->
          let left = cap.(ns + j).(sink) in
          if left > 0 then begin
            unmatched_recvs := !unmatched_recvs + left;
            let ps = function None -> "any" | Some v -> string_of_int v in
            unmatched_recv_reasons :=
              Printf.sprintf "unmatched recv: rank %d <- rank %s tag %s x%d" dst (ps sp)
                (ps tp) left
              :: !unmatched_recv_reasons
          end)
        rc)
    dsts;
  (* --- check 2: rendezvous waits-for cycle --------------------------- *)
  (* Nodes are the blocking occurrences (rendezvous-sized blocking sends
     plus blocking explicit recvs).  FIFO-match sends to recvs per
     (src, dst, tag) — MPI's non-overtaking rule — then:
       - a rendezvous send completes only once its receiver has *reached*
         the matching recv, i.e. completed its last blocking occurrence
         strictly before it;
       - a blocking recv completes only once its sender has *reached* the
         matching send.
     Plus the program-order chain edge within each rank.  A cycle in this
     graph is a schedule on which every rank in the cycle blocks forever. *)
  let blk = Array.map (fun l -> Array.of_list (List.rev l)) blocking in
  let offsets = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    offsets.(r + 1) <- offsets.(r) + Array.length blk.(r)
  done;
  let total = offsets.(n) in
  let node_rank = Array.make (max 1 total) 0 in
  for r = 0 to n - 1 do
    for k = offsets.(r) to offsets.(r + 1) - 1 do
      node_rank.(k) <- r
    done
  done;
  (* index of a rank's last blocking occurrence strictly before [pos] *)
  let last_blocking_before r pos =
    let a = blk.(r) in
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < pos then lo := mid + 1 else hi := mid
    done;
    !lo - 1
  in
  let match_tbl : (int * int, int * int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (src, dst, tag) sl ->
      match Hashtbl.find_opt recvs (dst, src, tag) with
      | None -> ()
      | Some rl ->
          let sa = Array.of_list (List.rev !sl) and ra = Array.of_list (List.rev !rl) in
          for k = 0 to min (Array.length sa) (Array.length ra) - 1 do
            let spos, srdv = sa.(k) and rpos, rblk = ra.(k) in
            if srdv then Hashtbl.replace match_tbl (src, spos) (dst, rpos);
            if rblk then Hashtbl.replace match_tbl (dst, rpos) (src, spos)
          done)
    sends;
  let edges id =
    let r = node_rank.(id) in
    let k = id - offsets.(r) in
    let chain = if k > 0 then [ id - 1 ] else [] in
    match Hashtbl.find_opt match_tbl (r, blk.(r).(k)) with
    | None -> chain
    | Some (peer, pos) ->
        let idx = last_blocking_before peer pos in
        if idx >= 0 then (offsets.(peer) + idx) :: chain else chain
  in
  let cycle = ref None in
  let color = Array.make (max 1 total) 0 in
  let start = ref 0 in
  while !cycle = None && !start < total do
    if color.(!start) = 0 then begin
      let stack = ref [ (!start, edges !start) ] in
      color.(!start) <- 1;
      while !stack <> [] && !cycle = None do
        match !stack with
        | [] -> ()
        | (u, es) :: rest -> (
            match es with
            | [] ->
                color.(u) <- 2;
                stack := rest
            | v :: es' ->
                stack := (u, es') :: rest;
                if color.(v) = 1 then begin
                  (* the stack is exactly the grey DFS path; cut it at v *)
                  let rec take acc = function
                    | (x, _) :: tl -> if x = v then x :: acc else take (x :: acc) tl
                    | [] -> acc
                  in
                  cycle := Some (take [] !stack)
                end
                else if color.(v) = 0 then begin
                  color.(v) <- 1;
                  stack := (v, edges v) :: !stack
                end)
      done
    end;
    incr start
  done;
  let deadlock_reasons, deadlock_cycles =
    match !cycle with
    | None -> ([], 0)
    | Some nodes ->
        let ranks = List.map (fun id -> node_rank.(id)) nodes in
        let dedup =
          List.fold_left
            (fun acc r -> match acc with x :: _ when x = r -> acc | _ -> r :: acc)
            [] ranks
          |> List.rev
        in
        let path = dedup @ [ List.hd dedup ] in
        ( [
            Printf.sprintf
              "potential rendezvous deadlock: blocking-send cycle %s (eager threshold %d B)"
              (String.concat " -> " (List.map string_of_int path))
              thr;
          ],
          1 )
  in
  (* --- check 3: collective consistency ------------------------------- *)
  let coll_reasons = ref [] and coll_mismatches = ref 0 in
  let comms = Hashtbl.fold (fun c _ acc -> c :: acc) colls [] |> List.sort compare in
  List.iter
    (fun comm ->
      let per_rank = Hashtbl.find colls comm in
      let seq_of r =
        match Hashtbl.find_opt per_rank r with
        | Some l -> Array.of_list (List.rev !l)
        | None -> [||]
      in
      let participants =
        if comm = world_comm then List.init n (fun r -> r)
        else Hashtbl.fold (fun r _ acc -> r :: acc) per_rank [] |> List.sort compare
      in
      match participants with
      | [] | [ _ ] -> ()
      | r0 :: rest ->
          let ref_seq = seq_of r0 in
          let mism =
            List.find_opt (fun r -> seq_of r <> ref_seq) rest
          in
          (match mism with
          | None -> ()
          | Some r ->
              incr coll_mismatches;
              let a = ref_seq and b = seq_of r in
              let la = Array.length a and lb = Array.length b in
              let rec first i =
                if i >= la || i >= lb then
                  Printf.sprintf "rank %d runs %d collective(s), rank %d runs %d" r0 la r lb
                else if a.(i) <> b.(i) then
                  Printf.sprintf "step %d: rank %d %s vs rank %d %s" i r0 a.(i) r b.(i)
                else first (i + 1)
              in
              coll_reasons :=
                Printf.sprintf "collective mismatch on comm %d: %s" comm (first 0)
                :: !coll_reasons))
    comms;
  let root_reasons =
    Hashtbl.fold (fun s () acc -> s :: acc) root_violations [] |> List.sort compare
  in
  let reasons =
    List.sort compare !unmatched_send_reasons
    @ List.sort compare !unmatched_recv_reasons
    @ deadlock_reasons
    @ List.sort compare !coll_reasons
    @ root_reasons
  in
  {
    k_nranks = n;
    k_impl = impl.Mpi_impl.name;
    k_eager_threshold = thr;
    k_sends = !sends_total;
    k_recvs = !recvs_total;
    k_wildcard_recvs = !wild_total;
    k_rdv_sends = !rdv_total;
    k_collectives = !coll_total;
    k_unmatched_sends = !unmatched_sends;
    k_unmatched_recvs = !unmatched_recvs;
    k_deadlock_cycles = deadlock_cycles;
    k_collective_mismatches = !coll_mismatches + List.length root_reasons;
    k_reasons = reasons;
  }

(* ------------------------------------------------------------------ *)
(* Renderings *)

let to_markdown r =
  let b = Buffer.create 512 in
  Buffer.add_string b "### Static communication check\n\n";
  Buffer.add_string b
    (Printf.sprintf "- ranks: %d, MPI profile: %s (eager threshold %d B)\n" r.k_nranks
       r.k_impl r.k_eager_threshold);
  Buffer.add_string b
    (Printf.sprintf "- point-to-point: %d sends (%d rendezvous), %d recvs (%d wildcard)\n"
       r.k_sends r.k_rdv_sends r.k_recvs r.k_wildcard_recvs);
  Buffer.add_string b (Printf.sprintf "- collectives: %d\n" r.k_collectives);
  (match verdict r with
  | Clean -> Buffer.add_string b "\n**Communication check: clean.**\n"
  | Violated reasons ->
      Buffer.add_string b "\n**Communication check: VIOLATED:**\n\n";
      List.iter (fun s -> Buffer.add_string b (Printf.sprintf "- %s\n" s)) reasons);
  Buffer.contents b

let to_json r =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"nranks\": %d,\n" r.k_nranks);
  Buffer.add_string b (Printf.sprintf "  \"impl\": \"%s\",\n" (Json.escape r.k_impl));
  Buffer.add_string b
    (Printf.sprintf "  \"eager_threshold_bytes\": %d,\n" r.k_eager_threshold);
  Buffer.add_string b
    (Printf.sprintf "  \"sends\": %d,\n  \"recvs\": %d,\n  \"wildcard_recvs\": %d,\n"
       r.k_sends r.k_recvs r.k_wildcard_recvs);
  Buffer.add_string b
    (Printf.sprintf "  \"rendezvous_sends\": %d,\n  \"collectives\": %d,\n" r.k_rdv_sends
       r.k_collectives);
  Buffer.add_string b
    (Printf.sprintf
       "  \"unmatched_sends\": %d,\n  \"unmatched_recvs\": %d,\n  \"deadlock_cycles\": %d,\n"
       r.k_unmatched_sends r.k_unmatched_recvs r.k_deadlock_cycles);
  Buffer.add_string b
    (Printf.sprintf "  \"collective_mismatches\": %d,\n" r.k_collective_mismatches);
  Buffer.add_string b
    (Printf.sprintf "  \"verdict\": \"%s\",\n" (verdict_name (verdict r)));
  Buffer.add_string b "  \"reasons\": [";
  Buffer.add_string b
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "\"%s\"" (Json.escape s)) r.k_reasons));
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

let of_json j =
  let num name =
    match Json.member name j with
    | Some v -> (
        match Json.to_float_opt v with
        | Some f -> int_of_float f
        | None -> failwith ("Comm_check.of_json: non-numeric " ^ name))
    | None -> failwith ("Comm_check.of_json: missing " ^ name)
  in
  let str name =
    match Option.bind (Json.member name j) Json.to_string_opt with
    | Some s -> s
    | None -> failwith ("Comm_check.of_json: missing " ^ name)
  in
  let reasons =
    match Json.member "reasons" j with
    | Some a -> List.filter_map Json.to_string_opt (Json.to_list a)
    | None -> failwith "Comm_check.of_json: missing reasons"
  in
  {
    k_nranks = num "nranks";
    k_impl = str "impl";
    k_eager_threshold = num "eager_threshold_bytes";
    k_sends = num "sends";
    k_recvs = num "recvs";
    k_wildcard_recvs = num "wildcard_recvs";
    k_rdv_sends = num "rendezvous_sends";
    k_collectives = num "collectives";
    k_unmatched_sends = num "unmatched_sends";
    k_unmatched_recvs = num "unmatched_recvs";
    k_deadlock_cycles = num "deadlock_cycles";
    k_collective_mismatches = num "collective_mismatches";
    k_reasons = reasons;
  }

let publish_metrics r =
  Metrics.set (Metrics.gauge "check.clean") (if r.k_reasons = [] then 1.0 else 0.0);
  Metrics.set (Metrics.gauge "check.unmatched_sends") (float_of_int r.k_unmatched_sends);
  Metrics.set (Metrics.gauge "check.unmatched_recvs") (float_of_int r.k_unmatched_recvs);
  Metrics.set (Metrics.gauge "check.deadlock_cycles") (float_of_int r.k_deadlock_cycles);
  Metrics.set
    (Metrics.gauge "check.collective_mismatches")
    (float_of_int r.k_collective_mismatches)

(* ------------------------------------------------------------------ *)
(* Deliberate damage, for testing the detector *)

type fault = [ `Mismatch | `Deadlock | `Collective ]

let fault_names : (string * fault) list =
  [ ("mismatch", `Mismatch); ("deadlock", `Deadlock); ("collective", `Collective) ]

let fault_of_string s =
  match List.assoc_opt s fault_names with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "unknown fault %S (expected mismatch|deadlock|collective)" s)

(* Splice [ins] into [l] before position [pos] ([pos >= length] appends). *)
let insert_at pos ins l =
  let rec go k rest =
    if k = pos then ins @ rest
    else
      match rest with
      | [] -> ins
      | x :: tl -> x :: go (k + 1) tl
  in
  go 0 l

(* [sites.(i mod len)] picks the injection position inside main cluster
   [i]'s entry list (clamped); absent or empty sites = append at the
   end, the historical behaviour.  All three fault classes flip the
   verdict at any position — the qcheck placement property drills
   exactly that. *)
let site_of sites i len =
  match sites with
  | Some a when Array.length a > 0 -> min (max 0 a.(i mod Array.length a)) len
  | _ -> len

let insert_everywhere ?sites (m : Merged.t) evs =
  let base = Array.length m.Merged.terminals in
  let terminals = Array.append m.Merged.terminals (Array.of_list evs) in
  let extra i =
    List.mapi
      (fun k _ ->
        { Merged.sym = Grammar.T (base + k); reps = 1; ranks = m.Merged.main_ranks.(i) })
      evs
  in
  let mains =
    Array.mapi
      (fun i entries -> insert_at (site_of sites i (List.length entries)) (extra i) entries)
      m.Merged.mains
  in
  { m with Merged.terminals; mains }

let perturb ?sites (what : fault) (m : Merged.t) =
  let n = m.Merged.nranks in
  match what with
  | `Mismatch ->
      (* every rank sends one small message nobody ever receives *)
      insert_everywhere ?sites m
        [ Event.Send { rel_peer = 1 mod n; tag = 9901; dt = Datatype.Byte; count = 1 } ]
  | `Deadlock ->
      (* a ring of above-threshold blocking sends posted before the
         matching recvs: counts match (check 1 stays clean) but every
         rank blocks in its rendezvous send — a full-ring cycle, a
         self-loop at nranks=1 *)
      let big = 1 lsl 20 in
      insert_everywhere ?sites m
        [
          Event.Send { rel_peer = 1 mod n; tag = 9902; dt = Datatype.Byte; count = big };
          Event.Recv { rel_peer = (n - 1) mod n; tag = 9902; dt = Datatype.Byte; count = big };
        ]
  | `Collective ->
      if n = 1 then
        (* single rank: damage the root instead of the participation *)
        insert_everywhere ?sites m
          [ Event.Bcast { comm = world_comm; root = n; dt = Datatype.Byte; count = 1 } ]
      else begin
        (* one rank runs an extra world collective the others never join *)
        let base = Array.length m.Merged.terminals in
        let terminals =
          Array.append m.Merged.terminals
            [|
              Event.Reduce
                { comm = world_comm; root = 0; dt = Datatype.Byte; count = 1; op = Op.Sum };
            |]
        in
        let lone =
          match Rank_list.to_list m.Merged.main_ranks.(0) with
          | r :: _ -> r
          | [] -> 0
        in
        let mains = Array.copy m.Merged.mains in
        let entry = { Merged.sym = Grammar.T base; reps = 1; ranks = Rank_list.singleton lone } in
        mains.(0) <- insert_at (site_of sites 0 (List.length mains.(0))) [ entry ] mains.(0);
        { m with Merged.terminals; mains }
      end

module Engine = Siesta_mpi.Engine
module Call = Siesta_mpi.Call
module Span = Siesta_obs.Span
module Pretty_table = Siesta_util.Pretty_table

type kind = Compute | Transfer | Wait

let kind_name = function Compute -> "compute" | Transfer -> "transfer" | Wait -> "wait"

type segment = { t0 : float; t1 : float; kind : kind; name : string }

type p2p_match = {
  pm_src : int;
  pm_dst : int;
  pm_rdv : bool;
  pm_send_ready : float;
  pm_post : float;
  pm_completion : float;
  pm_bytes : int;
}

type coll_sync = {
  cs_kind : string;
  cs_ranks : int array;
  cs_last_rank : int;
  cs_last_arrival : float;
  cs_finish : float;
}

type t = {
  nranks : int;
  elapsed : float;
  per_rank_elapsed : float array;
  segments : segment array array;
  matches : p2p_match array;
  colls : coll_sync array;
}

(* ------------------------------------------------------------------ *)
(* Classification *)

(* Kind of the simulated interval owned by a call, decided statically by
   the call type (the paper's compute/transfer/wait trichotomy).  A
   rendezvous MPI_Send does block, but its classification stays with the
   call type: the critical-path walk, not the classifier, decides whether
   a given Send interval was remotely bound. *)
let classify (call : Call.t) =
  match call with
  | Call.Send _ | Call.Isend _ | Call.Irecv _ | Call.Ibarrier _ | Call.Ibcast _
  | Call.Iallreduce _ | Call.Comm_free _ | Call.File_write_at _ | Call.File_read_at _ ->
      Transfer
  | Call.Recv _ | Call.Wait _ | Call.Waitall _ | Call.Sendrecv _ | Call.Barrier _
  | Call.Bcast _ | Call.Reduce _ | Call.Allreduce _ | Call.Alltoall _ | Call.Alltoallv _
  | Call.Allgather _ | Call.Gather _ | Call.Scatter _ | Call.Scan _ | Call.Exscan _
  | Call.Reduce_scatter _ | Call.Comm_split _ | Call.Comm_dup _ | Call.File_open _
  | Call.File_close _ | Call.File_write_all _ | Call.File_read_all _ ->
      Wait

(* ------------------------------------------------------------------ *)
(* Tiling *)

(* Per-kind sums live in float arrays, three slots per rank in
   [kind_totals] order. *)
let kind_slot = function Compute -> 0 | Transfer -> 1 | Wait -> 2

let add_duration sums i t0 t1 = sums.(i) <- sums.(i) +. (t1 -. t0)

(* Where closed segments go: [record] keeps them; [record_totals] adds
   each one's duration to its rank's per-kind sum, in segment order, so
   its sums equal [kind_totals] of the kept segments bit for bit. *)
type sink = Keep of segment list array | Sum of float array

(* A rank's clocks, in an all-float record: OCaml stores it flat, and
   [close] and [close_open] are inlined so their float arguments stay
   unboxed, so following the engine allocates nothing until a segment
   is kept. *)
type clocks = {
  mutable open_t0 : float;  (* entry clock of the open call *)
  mutable cursor : float;  (* end of the last closed segment *)
  mutable pend_t0 : float;  (* the pending segment's interval *)
  mutable pend_t1 : float;
}

(* The one tiling rule, run per rank as the observer's events arrive.  A
   call segment runs from its entry clock to the start of the rank's next
   event (or its final clock); compute intervals are exact and adjacent
   ones coalesce, so the last closed segment is held back as pending
   until the next one cannot extend it.  Gaps — which the engine should
   never produce — are kept visible as explicit "idle" wait segments
   rather than silently absorbed.  No MPI call is named "", so "" marks
   an absent open call or pending segment. *)
type rank_tiler = {
  clk : clocks;
  mutable open_name : string;
  mutable open_kind : kind;
  mutable pend_name : string;
  mutable pend_kind : kind;
}

let flush sink rank st =
  if st.pend_name <> "" then begin
    let c = st.clk in
    (match sink with
    | Keep segs ->
        segs.(rank) <-
          { t0 = c.pend_t0; t1 = c.pend_t1; kind = st.pend_kind; name = st.pend_name }
          :: segs.(rank)
    | Sum sums -> add_duration sums ((3 * rank) + kind_slot st.pend_kind) c.pend_t0 c.pend_t1);
    st.pend_name <- ""
  end

let[@inline] close sink rank st t0 t1 kind name =
  if t1 > t0 then begin
    let c = st.clk in
    if kind = Compute && st.pend_name <> "" && st.pend_kind = Compute && c.pend_t1 = t0 then
      c.pend_t1 <- t1
    else begin
      flush sink rank st;
      c.pend_t0 <- t0;
      c.pend_t1 <- t1;
      st.pend_kind <- kind;
      st.pend_name <- name
    end
  end

let[@inline] close_open sink rank st upto =
  let c = st.clk in
  if st.open_name = "" then close sink rank st c.cursor upto Wait "idle"
  else begin
    close sink rank st c.open_t0 upto st.open_kind st.open_name;
    st.open_name <- ""
  end;
  c.cursor <- upto

let tiler_observer sink ranks : Engine.observer =
  {
    Engine.on_call =
      (fun ~rank ~call ~clock ->
        let st = ranks.(rank) in
        close_open sink rank st clock;
        st.open_name <- Call.name call;
        st.open_kind <- classify call;
        st.clk.open_t0 <- clock);
    on_compute =
      (fun ~rank ~t0 ~t1 ->
        let st = ranks.(rank) in
        close_open sink rank st t0;
        close sink rank st t0 t1 Compute "compute";
        st.clk.cursor <- t1);
    on_p2p_match =
      (fun ~src:_ ~dst:_ ~rendezvous:_ ~send_ready:_ ~post:_ ~completion:_ ~bytes:_ -> ());
    on_coll_done = (fun ~kind:_ ~ranks:_ ~last_rank:_ ~last_arrival:_ ~finish:_ -> ());
  }

(* Run [program] with a tiler feeding [sink], then close every rank
   against its final clock.  [observe] adds callbacks to the tiler's
   observer. *)
let run_tiled ~platform ~impl ~nranks ?hook ~seed ?(observe = Fun.id) sink program =
  let ranks =
    Array.init nranks (fun _ ->
        {
          clk = { open_t0 = 0.0; cursor = 0.0; pend_t0 = 0.0; pend_t1 = 0.0 };
          open_name = "";
          open_kind = Wait;
          pend_name = "";
          pend_kind = Wait;
        })
  in
  let observer = observe (tiler_observer sink ranks) in
  let result = Engine.run ~platform ~impl ~nranks ?hook ~observer ~seed program in
  Array.iteri
    (fun rank elapsed ->
      close_open sink rank ranks.(rank) elapsed;
      flush sink rank ranks.(rank))
    result.Engine.per_rank_elapsed;
  result

let record ~platform ~impl ~nranks ?(seed = 42) program =
  let segments = Array.make nranks [] in
  let matches = ref [] and colls = ref [] in
  let observe (o : Engine.observer) =
    {
      o with
      Engine.on_p2p_match =
        (fun ~src ~dst ~rendezvous ~send_ready ~post ~completion ~bytes ->
          matches :=
            {
              pm_src = src;
              pm_dst = dst;
              pm_rdv = rendezvous;
              pm_send_ready = send_ready;
              pm_post = post;
              pm_completion = completion;
              pm_bytes = bytes;
            }
            :: !matches);
      on_coll_done =
        (fun ~kind ~ranks ~last_rank ~last_arrival ~finish ->
          colls :=
            {
              cs_kind = kind;
              cs_ranks = Array.copy ranks;
              cs_last_rank = last_rank;
              cs_last_arrival = last_arrival;
              cs_finish = finish;
            }
            :: !colls);
    }
  in
  let result =
    run_tiled ~platform ~impl ~nranks ~seed ~observe (Keep segments) program
  in
  ( {
      nranks;
      elapsed = result.Engine.elapsed;
      per_rank_elapsed = Array.copy result.Engine.per_rank_elapsed;
      segments = Array.map (fun l -> Array.of_list (List.rev l)) segments;
      matches = Array.of_list (List.rev !matches);
      colls = Array.of_list (List.rev !colls);
    },
    result )

let totals_at sums base =
  [ (Compute, sums.(base)); (Transfer, sums.(base + 1)); (Wait, sums.(base + 2)) ]

let record_totals ~platform ~impl ~nranks ~hook ~seed program =
  let sums = Array.make (3 * nranks) 0.0 in
  let result = run_tiled ~platform ~impl ~nranks ~hook ~seed (Sum sums) program in
  (Array.init nranks (fun rank -> totals_at sums (3 * rank)), result)

(* ------------------------------------------------------------------ *)
(* Analysis *)

let kind_totals t rank =
  let sums = Array.make 3 0.0 in
  Array.iter (fun s -> add_duration sums (kind_slot s.kind) s.t0 s.t1) t.segments.(rank);
  totals_at sums 0

let wait_breakdown t rank =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      if s.kind = Wait then begin
        let n, d = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl s.name) in
        Hashtbl.replace tbl s.name (n + 1, d +. (s.t1 -. s.t0))
      end)
    t.segments.(rank);
  Hashtbl.fold (fun name (n, d) acc -> (name, n, d) :: acc) tbl []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let render t =
  let header = [ "rank"; "compute_s"; "transfer_s"; "wait_s"; "wait_%"; "top wait call" ] in
  let rows =
    List.init t.nranks (fun rk ->
        let totals = kind_totals t rk in
        let get k = List.assoc k totals in
        let el = t.per_rank_elapsed.(rk) in
        let top =
          match wait_breakdown t rk with
          | [] -> "-"
          | (name, n, d) :: _ -> Printf.sprintf "%s (x%d, %.2e s)" name n d
        in
        [
          string_of_int rk;
          Printf.sprintf "%.3e" (get Compute);
          Printf.sprintf "%.3e" (get Transfer);
          Printf.sprintf "%.3e" (get Wait);
          (if el > 0.0 then Printf.sprintf "%.1f" (100.0 *. get Wait /. el) else "0.0");
          top;
        ])
  in
  Pretty_table.render ~header ~rows

(* ------------------------------------------------------------------ *)
(* Chrome export (simulated clock) *)

let to_chrome_json t =
  let us s = s *. 1e6 in
  let evs = ref [] in
  for rk = t.nranks - 1 downto 0 do
    Array.iter
      (fun s ->
        evs :=
          {
            Span.e_name = s.name;
            e_cat = "sim";
            e_ph = 'X';
            e_ts_us = us s.t0;
            e_dur_us = us (s.t1 -. s.t0);
            e_tid = rk;
            e_args = [ ("kind", kind_name s.kind) ];
          }
          :: !evs)
      t.segments.(rk);
    (* metadata first on each track so every rank renders even when empty *)
    evs :=
      {
        Span.e_name = "thread_name";
        e_cat = "__metadata";
        e_ph = 'M';
        e_ts_us = 0.0;
        e_dur_us = 0.0;
        e_tid = rk;
        e_args = [ ("name", Printf.sprintf "rank %d" rk) ];
      }
      :: !evs
  done;
  Span.chrome_json_of ~clock:"simulated" !evs

let write t ~path =
  let oc = open_out path in
  output_string oc (to_chrome_json t);
  close_out oc

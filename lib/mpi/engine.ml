module Cpu = Siesta_platform.Cpu
module Spec = Siesta_platform.Spec
module Network = Siesta_platform.Network
module Mpi_impl = Siesta_platform.Mpi_impl
module Papi = Siesta_perf.Papi
module Counters = Siesta_perf.Counters
module Kernel = Siesta_perf.Kernel
module Rng = Siesta_util.Rng
module Metrics = Siesta_obs.Metrics

exception Deadlock of string
exception Collective_mismatch of string

type comm = { c_id : int; c_ranks : int array; c_my : int }

type request = {
  r_id : int;
  mutable r_done : float option;
  mutable r_waiter : int option;  (* world rank blocked on this request *)
}

type message = {
  m_src : int;  (* world rank *)
  m_dst : int;  (* world rank *)
  m_tag : int;
  m_bytes : int;
  m_avail : float;  (* receiver-side availability (eager only) *)
  m_rdv : bool;
  m_send_ready : float;
  m_sreq : request option;  (* completed at pairing time for rendezvous *)
}

type posted = {
  p_src : int;  (* world rank or Call.any_source *)
  p_tag : int;
  p_post : float;
  p_req : request;
}

type status = Fresh | Runnable | Running | Blocked | Done

(* What a suspended rank is blocked on.  Kept unformatted: the text is
   built only for a [Deadlock] message, not on every suspend. *)
type blocker = Not_blocked | Request of int | Collective of string

let blocker_text = function
  | Not_blocked -> ""
  | Request id -> Printf.sprintf "request %d" id
  | Collective kind -> "collective " ^ kind

type proc = {
  rank : int;
  papi : Papi.t;
  mutable clock : float;
  mutable status : status;
  mutable k : (unit, unit) Effect.Deep.continuation option;
  mutable resume_clock : float;  (* target clock adopted after a collective resume *)
  mutable split_result : comm option;
  mutable file_result : int;
  mutable blocked_on : blocker;
  coll_seq : (int, int) Hashtbl.t;  (* comm id -> next collective index *)
}

(* Payload a rank contributes to a pending collective.  [cpl_clock] is the
   contributor's clock at arrival (after call overhead), kept so observers
   can identify the last arriver of a completed collective. *)
type coll_payload = {
  cpl_rank : int;
  cpl_bytes : int;
  cpl_color : int;
  cpl_key : int;
  cpl_clock : float;
}

(* [cp_count] is the length of [cp_arrived], kept so that each arrival
   tests for the last one in O(1) instead of walking the list; the list
   itself is read once, by the last arriver ([coll_finish],
   [split_collective], [file_open]). *)
type coll_pending = {
  cp_kind : string;
  mutable cp_arrived : coll_payload list;  (* newest first *)
  mutable cp_count : int;
  mutable cp_maxclock : float;
  mutable cp_waiters : int list;  (* world ranks suspended on this collective *)
  mutable cp_requests : request list;  (* non-blocking joiners' requests *)
}

type hook = {
  on_event : rank:int -> papi:Papi.t -> call:Call.t -> unit;
  per_event_overhead : float;
}

(* Passive simulated-time observer (see engine.mli for the contract). *)
type observer = {
  on_call : rank:int -> call:Call.t -> clock:float -> unit;
  on_compute : rank:int -> t0:float -> t1:float -> unit;
  on_p2p_match :
    src:int ->
    dst:int ->
    rendezvous:bool ->
    send_ready:float ->
    post:float ->
    completion:float ->
    bytes:int ->
    unit;
  on_coll_done :
    kind:string ->
    ranks:int array ->
    last_rank:int ->
    last_arrival:float ->
    finish:float ->
    unit;
}

type engine = {
  platform : Spec.t;
  impl : Mpi_impl.t;
  nranks : int;
  procs : proc array;
  runq : int Queue.t;
  (* Point-to-point matching queues, indexed by world rank: every
     point-to-point call runs on the world communicator. *)
  unexpected : message Queue.t array;  (* by destination *)
  posted : posted Queue.t array;  (* by owner *)
  wildcard_posted : bool array;
      (* owners that posted at least one ANY_SOURCE/ANY_TAG recv —
         finalize uses this to split truly orphaned leftovers from
         wildcard-prone ones *)
  pending_colls : (int * int, coll_pending) Hashtbl.t;
      (* (comm id, collective index) -> in-flight collective; the index is
         each rank's count of collectives initiated on that communicator,
         so several non-blocking collectives can be in flight in order *)
  hook : hook option;
  observer : observer option;
  mutable next_req : int;
  mutable next_comm : int;
  mutable next_file : int;
  mutable total_calls : int;
  (* Per-call-kind (count, bytes) accumulators, indexed by
     [Call.index].  The hot [emit] path pays a jump-table match plus
     two plain int adds — no hashing, no atomics; the scheduler is
     single-domain, so unsynchronized slots are safe.  The totals are
     flushed into the (atomic, registry-backed) [Metrics] counters once
     at the end of [run].  The collective latency histogram is likewise
     resolved once per run, not per collective, keeping the registry
     mutex off the event path. *)
  call_counts : int array;
  call_bytes : int array;
  mutable coll_latency : Metrics.histogram option;
}

type file = { f_id : int; f_comm : comm }

type ctx = { eng : engine; proc : proc; world : comm }

type result = {
  elapsed : float;
  per_rank_elapsed : float array;
  per_rank_counters : Counters.t array;
  total_calls : int;
  unreceived_messages : int;
  unreceived_wildcard_prone : int;
}

type _ Effect.t += Suspend : unit Effect.t

(* [Stdlib.max]'s own expression at type float: the same result,
   NaN and signed zeros included, without a polymorphic compare. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

(* ------------------------------------------------------------------ *)
(* Cost model helpers                                                   *)

let call_overhead eng = eng.impl.Mpi_impl.call_overhead_s

let[@inline] wire_seconds ~platform ~impl ~same_node ~bytes =
  let net = platform.Spec.network in
  let lat = if same_node then net.Network.intra_latency_s else net.Network.inter_latency_s in
  let bw = if same_node then net.Network.intra_bandwidth_bps else net.Network.inter_bandwidth_bps in
  (lat *. impl.Mpi_impl.latency_factor)
  +. (float_of_int bytes /. (bw *. impl.Mpi_impl.bandwidth_factor))

let wire_time eng ~src ~dst ~bytes =
  wire_seconds ~platform:eng.platform ~impl:eng.impl
    ~same_node:(Spec.same_node eng.platform src dst) ~bytes

let log2_ceil p =
  let rec go acc v = if v >= p then acc else go (acc + 1) (v * 2) in
  if p <= 1 then 0 else go 0 1

(* Per-collective analytic costs.  [bytes] is the max per-rank payload. *)
let coll_cost eng ranks kind bytes =
  let p = Array.length ranks in
  if p <= 1 then 0.0
  else begin
    let net = eng.platform.Spec.network in
    let spans_nodes =
      let node0 = Spec.node_of_rank eng.platform ranks.(0) in
      Array.exists (fun r -> Spec.node_of_rank eng.platform r <> node0) ranks
    in
    let lat =
      (if spans_nodes then net.Network.inter_latency_s else net.Network.intra_latency_s)
      *. eng.impl.Mpi_impl.latency_factor
    in
    let bw =
      (if spans_nodes then net.Network.inter_bandwidth_bps else net.Network.intra_bandwidth_bps)
      *. eng.impl.Mpi_impl.bandwidth_factor
    in
    let n = float_of_int bytes in
    let logp = float_of_int (log2_ceil p) in
    let pf = float_of_int p in
    let i = eng.impl in
    match kind with
    | "barrier" -> i.Mpi_impl.barrier_factor *. logp *. lat
    | "bcast" -> i.Mpi_impl.bcast_factor *. logp *. (lat +. (n /. bw))
    | "reduce" -> i.Mpi_impl.reduce_factor *. logp *. (lat +. (1.15 *. n /. bw))
    | "allreduce" -> i.Mpi_impl.allreduce_factor *. logp *. (lat +. (2.2 *. n /. bw))
    | "alltoall" -> i.Mpi_impl.alltoall_factor *. (pf -. 1.0) *. (lat +. (n /. bw))
    | "alltoallv" ->
        (* here [bytes] already aggregates a rank's total send volume *)
        i.Mpi_impl.alltoall_factor *. (((pf -. 1.0) *. lat) +. (n /. bw))
    | "allgather" -> i.Mpi_impl.allgather_factor *. (pf -. 1.0) *. (lat +. (n /. bw))
    | "gather" | "scatter" -> (logp *. lat) +. ((pf -. 1.0) *. n /. bw)
    | "scan" | "exscan" -> i.Mpi_impl.reduce_factor *. logp *. (lat +. (1.15 *. n /. bw))
    | "reduce_scatter" ->
        i.Mpi_impl.allreduce_factor *. (((pf -. 1.0) *. lat /. pf *. logp) +. (logp *. (lat +. (1.6 *. n /. bw))))
    | "split" | "dup" -> i.Mpi_impl.barrier_factor *. logp *. lat *. 1.5
    | "file_open" ->
        eng.platform.Spec.storage.Spec.open_latency_s +. (i.Mpi_impl.barrier_factor *. logp *. lat)
    | "file_close" ->
        (0.5 *. eng.platform.Spec.storage.Spec.open_latency_s)
        +. (i.Mpi_impl.barrier_factor *. logp *. lat)
    | "file_write_all" ->
        let st = eng.platform.Spec.storage in
        st.Spec.per_call_latency_s +. (logp *. lat)
        +. (n *. pf /. st.Spec.write_bandwidth_bps)
    | "file_read_all" ->
        let st = eng.platform.Spec.storage in
        st.Spec.per_call_latency_s +. (logp *. lat)
        +. (n *. pf /. st.Spec.read_bandwidth_bps)
    | other -> invalid_arg ("Engine.coll_cost: unknown kind " ^ other)
  end

let estimate_p2p_seconds ~platform ~impl ~same_node ~bytes =
  let wire = wire_seconds ~platform ~impl ~same_node ~bytes in
  let rdv = if bytes > impl.Mpi_impl.eager_threshold_bytes then impl.Mpi_impl.rendezvous_extra_s else 0.0 in
  impl.Mpi_impl.call_overhead_s +. wire +. rdv

(* ------------------------------------------------------------------ *)
(* Scheduling primitives                                                *)

let wake eng rank =
  let p = eng.procs.(rank) in
  match p.status with
  | Blocked ->
      p.status <- Runnable;
      Queue.push rank eng.runq
  | Fresh | Runnable | Running | Done -> ()

let suspend ctx ~on =
  ctx.proc.blocked_on <- on;
  Effect.perform Suspend

(* Complete a request and wake its waiter, if any. *)
let complete_request eng req time =
  req.r_done <- Some time;
  match req.r_waiter with
  | Some rk ->
      req.r_waiter <- None;
      wake eng rk
  | None -> ()

let fresh_request eng =
  let id = eng.next_req in
  eng.next_req <- id + 1;
  { r_id = id; r_done = None; r_waiter = None }

(* ------------------------------------------------------------------ *)
(* Queues                                                               *)

(* First element satisfying [pred], preserving the order of the rest.
   The head, the common match, is popped; only a match further back
   rebuilds the queue. *)
let queue_find_remove q pred =
  if Queue.is_empty q then None
  else if pred (Queue.peek q) then Some (Queue.pop q)
  else begin
    let found = ref None in
    let rest = Queue.create () in
    Queue.iter
      (fun x -> if !found = None && pred x then found := Some x else Queue.push x rest)
      q;
    Queue.clear q;
    Queue.transfer rest q;
    !found
  end

(* ------------------------------------------------------------------ *)
(* Point-to-point pairing                                               *)

let pair eng (msg : message) (post : posted) =
  let completion =
    if msg.m_rdv then
      fmax msg.m_send_ready post.p_post
      +. eng.impl.Mpi_impl.rendezvous_extra_s
      +. wire_time eng ~src:msg.m_src ~dst:msg.m_dst ~bytes:msg.m_bytes
    else fmax post.p_post msg.m_avail
  in
  (match eng.observer with
  | None -> ()
  | Some o ->
      o.on_p2p_match ~src:msg.m_src ~dst:msg.m_dst ~rendezvous:msg.m_rdv
        ~send_ready:msg.m_send_ready ~post:post.p_post ~completion ~bytes:msg.m_bytes);
  complete_request eng post.p_req completion;
  match msg.m_sreq with
  | Some sreq when msg.m_rdv -> complete_request eng sreq completion
  | Some _ | None -> ()

let matches_post (post : posted) (msg : message) =
  (post.p_src = Call.any_source || post.p_src = msg.m_src)
  && (post.p_tag = Call.any_tag || post.p_tag = msg.m_tag)

let deliver eng msg =
  match queue_find_remove eng.posted.(msg.m_dst) (fun post -> matches_post post msg) with
  | Some post -> pair eng msg post
  | None -> Queue.push msg eng.unexpected.(msg.m_dst)

let post_recv eng ~owner (post : posted) =
  if post.p_src = Call.any_source || post.p_tag = Call.any_tag then
    eng.wildcard_posted.(owner) <- true;
  match queue_find_remove eng.unexpected.(owner) (fun msg -> matches_post post msg) with
  | Some msg -> pair eng msg post
  | None -> Queue.push post eng.posted.(owner)

(* ------------------------------------------------------------------ *)
(* ctx accessors                                                        *)

let rank ctx = ctx.proc.rank
let size ctx = ctx.eng.nranks
let comm_world ctx = ctx.world
let comm_rank _ctx comm = comm.c_my
let comm_size _ctx comm = Array.length comm.c_ranks
let comm_id _ctx comm = comm.c_id
let wtime ctx = ctx.proc.clock

let count_call eng call =
  (* Per-MPI-call-type count and volume accumulation for the
     "mpi.calls.<name>" / "mpi.bytes.<name>" counters.  Only reached
     when the metrics registry is enabled; off, the caller's branch is
     the entire cost.  On, the cost is two plain int adds — the
     registry-backed counters are only touched by the end-of-run flush
     in [run]. *)
  let i = Call.index call in
  eng.call_counts.(i) <- eng.call_counts.(i) + 1;
  eng.call_bytes.(i) <- eng.call_bytes.(i) + Call.payload_bytes call

(* Tell the observer (if any) that a call begins now, on this rank's
   current clock.  Split out of [emit] because comm_split / comm_dup /
   file_open only learn the resolved ids *after* their collective
   completes: they notify at entry with a placeholder and later emit to
   the recorder hook with [~observe:false]. *)
let notify_call ctx call =
  match ctx.eng.observer with
  | None -> ()
  | Some o -> o.on_call ~rank:ctx.proc.rank ~call ~clock:ctx.proc.clock

let emit ?(observe = true) ctx call =
  if observe then notify_call ctx call;
  ctx.eng.total_calls <- ctx.eng.total_calls + 1;
  if Metrics.enabled () then count_call ctx.eng call;
  match ctx.eng.hook with
  | None -> ()
  | Some h ->
      h.on_event ~rank:ctx.proc.rank ~papi:ctx.proc.papi ~call;
      ctx.proc.clock <- ctx.proc.clock +. h.per_event_overhead

let notify_compute ctx t0 =
  match ctx.eng.observer with
  | Some o when ctx.proc.clock > t0 -> o.on_compute ~rank:ctx.proc.rank ~t0 ~t1:ctx.proc.clock
  | Some _ | None -> ()

let compute_work ctx work =
  let t0 = ctx.proc.clock in
  let before = (Papi.totals ctx.proc.papi).Counters.cyc in
  Papi.accumulate ctx.proc.papi work;
  let after = (Papi.totals ctx.proc.papi).Counters.cyc in
  ctx.proc.clock <-
    ctx.proc.clock +. Cpu.seconds_of_cycles ctx.eng.platform.Spec.cpu (after -. before);
  notify_compute ctx t0

let compute ctx kernel = compute_work ctx (Kernel.to_work kernel)

let sleep ctx dt =
  let t0 = ctx.proc.clock in
  ctx.proc.clock <- t0 +. fmax 0.0 dt;
  notify_compute ctx t0

(* ------------------------------------------------------------------ *)
(* Point-to-point operations                                            *)

let wait_request ctx req =
  match req.r_done with
  | Some t -> ctx.proc.clock <- fmax ctx.proc.clock t
  | None -> begin
      req.r_waiter <- Some ctx.proc.rank;
      suspend ctx ~on:(Request req.r_id);
      match req.r_done with
      | Some t -> ctx.proc.clock <- fmax ctx.proc.clock t
      | None -> assert false
    end

let eager eng bytes = bytes <= eng.impl.Mpi_impl.eager_threshold_bytes

(* Charge the call overhead and post a [bytes]-byte message to [dest].
   An eager message is available at the receiver after its wire time; a
   rendezvous one waits for the receiver to pair it, which completes
   [sreq]. *)
let post_send ctx ~dest ~tag ~bytes sreq =
  let eng = ctx.eng and proc = ctx.proc in
  proc.clock <- proc.clock +. call_overhead eng;
  let dst = ctx.world.c_ranks.(dest) in
  let rdv = not (eager eng bytes) in
  deliver eng
    {
      m_src = proc.rank;
      m_dst = dst;
      m_tag = tag;
      m_bytes = bytes;
      m_avail = (if rdv then infinity else proc.clock +. wire_time eng ~src:proc.rank ~dst ~bytes);
      m_rdv = rdv;
      m_send_ready = proc.clock;
      m_sreq = sreq;
    }

let send_internal ctx ~dest ~tag ~dt ~count =
  let bytes = Datatype.bytes dt ~count in
  if eager ctx.eng bytes then post_send ctx ~dest ~tag ~bytes None
  else begin
    let sreq = fresh_request ctx.eng in
    post_send ctx ~dest ~tag ~bytes (Some sreq);
    wait_request ctx sreq
  end

let isend_internal ctx ~dest ~tag ~dt ~count =
  let bytes = Datatype.bytes dt ~count in
  let req = fresh_request ctx.eng in
  post_send ctx ~dest ~tag ~bytes (Some req);
  (* an eager send is complete as soon as it is posted *)
  if eager ctx.eng bytes then req.r_done <- Some ctx.proc.clock;
  req

let irecv_internal ctx ~src ~tag ~dt ~count =
  let eng = ctx.eng in
  let proc = ctx.proc in
  proc.clock <- proc.clock +. call_overhead eng;
  let req = fresh_request eng in
  let src_world = if src = Call.any_source then Call.any_source else ctx.world.c_ranks.(src) in
  post_recv eng ~owner:proc.rank
    {
      p_src = src_world;
      p_tag = tag;
      p_post = proc.clock;
      p_req = req;
    };
  ignore (Datatype.bytes dt ~count);
  req

let send ctx ~dest ~tag ~dt ~count =
  emit ctx (Call.Send { peer = dest; tag; dt; count });
  send_internal ctx ~dest ~tag ~dt ~count

let recv ctx ~src ~tag ~dt ~count =
  emit ctx (Call.Recv { peer = src; tag; dt; count });
  (* the overhead is charged by irecv_internal; just wait *)
  wait_request ctx (irecv_internal ctx ~src ~tag ~dt ~count)

let isend ctx ~dest ~tag ~dt ~count =
  let call_req = ctx.eng.next_req in
  emit ctx (Call.Isend ({ peer = dest; tag; dt; count }, call_req));
  isend_internal ctx ~dest ~tag ~dt ~count

let irecv ctx ~src ~tag ~dt ~count =
  let call_req = ctx.eng.next_req in
  emit ctx (Call.Irecv ({ peer = src; tag; dt; count }, call_req));
  irecv_internal ctx ~src ~tag ~dt ~count

let wait ctx req =
  emit ctx (Call.Wait req.r_id);
  ctx.proc.clock <- ctx.proc.clock +. call_overhead ctx.eng;
  wait_request ctx req

let waitall ctx reqs =
  emit ctx (Call.Waitall (List.map (fun r -> r.r_id) reqs));
  ctx.proc.clock <- ctx.proc.clock +. call_overhead ctx.eng;
  List.iter (fun r -> wait_request ctx r) reqs

let sendrecv ctx ~dest ~send_tag ~src ~recv_tag ~dt ~send_count ~recv_count =
  emit ctx
    (Call.Sendrecv
       {
         send = { peer = dest; tag = send_tag; dt; count = send_count };
         recv = { peer = src; tag = recv_tag; dt; count = recv_count };
       });
  let rreq = irecv_internal ctx ~src ~tag:recv_tag ~dt ~count:recv_count in
  send_internal ctx ~dest ~tag:send_tag ~dt ~count:send_count;
  wait_request ctx rreq

(* ------------------------------------------------------------------ *)
(* Collectives                                                          *)

(* Join the in-flight collective on [comm]; returns [true] if this rank is
   the last to arrive.  [bytes] is this rank's payload contribution. *)
let coll_join ctx comm ~kind ~bytes ~color ~key =
  let eng = ctx.eng in
  let proc = ctx.proc in
  proc.clock <- proc.clock +. call_overhead eng;
  let seq = Option.value ~default:0 (Hashtbl.find_opt proc.coll_seq comm.c_id) in
  Hashtbl.replace proc.coll_seq comm.c_id (seq + 1);
  let cp_key = (comm.c_id, seq) in
  let cp =
    match Hashtbl.find_opt eng.pending_colls cp_key with
    | Some cp ->
        if cp.cp_kind <> kind then
          raise
            (Collective_mismatch
               (Printf.sprintf "comm %d, collective %d: rank %d calls %s while others call %s"
                  comm.c_id seq proc.rank kind cp.cp_kind));
        cp
    | None ->
        let cp =
          { cp_kind = kind; cp_arrived = []; cp_count = 0; cp_maxclock = 0.0; cp_waiters = [];
            cp_requests = [] }
        in
        Hashtbl.add eng.pending_colls cp_key cp;
        cp
  in
  cp.cp_arrived <-
    { cpl_rank = proc.rank; cpl_bytes = bytes; cpl_color = color; cpl_key = key;
      cpl_clock = proc.clock }
    :: cp.cp_arrived;
  cp.cp_count <- cp.cp_count + 1;
  cp.cp_maxclock <- fmax cp.cp_maxclock proc.clock;
  (cp, cp_key, cp.cp_count = Array.length comm.c_ranks)

(* Close a complete collective: price it, resume suspended fibers, and
   complete non-blocking joiners' requests.  [advance_self] is false for a
   non-blocking last arriver, whose own clock must not jump to the finish
   time. *)
let coll_finish ?(advance_self = true) ctx comm cp cp_key ~kind =
  let eng = ctx.eng in
  let max_bytes = List.fold_left (fun acc a -> max acc a.cpl_bytes) 0 cp.cp_arrived in
  let finish = cp.cp_maxclock +. coll_cost eng comm.c_ranks kind max_bytes in
  (* simulated latency of the collective itself (last arrival -> finish),
     one log-scale histogram across all kinds *)
  (if Metrics.enabled () then
     let h =
       match eng.coll_latency with
       | Some h -> h
       | None ->
           let h = Metrics.histogram "mpi.collective.latency_s" in
           eng.coll_latency <- Some h;
           h
     in
     Metrics.observe h (finish -. cp.cp_maxclock));
  (match eng.observer with
  | None -> ()
  | Some o ->
      (* the last arriver is the payload whose clock equals cp_maxclock
         (bit-equal, since cp_maxclock is a running max of those clocks);
         ties break towards the lowest rank for determinism *)
      let last_rank =
        List.fold_left
          (fun acc a ->
            if a.cpl_clock = cp.cp_maxclock && (acc < 0 || a.cpl_rank < acc) then a.cpl_rank
            else acc)
          (-1) cp.cp_arrived
      in
      o.on_coll_done ~kind ~ranks:comm.c_ranks ~last_rank ~last_arrival:cp.cp_maxclock ~finish);
  Hashtbl.remove eng.pending_colls cp_key;
  List.iter
    (fun rk ->
      eng.procs.(rk).resume_clock <- finish;
      wake eng rk)
    cp.cp_waiters;
  List.iter (fun req -> complete_request eng req finish) cp.cp_requests;
  if advance_self then ctx.proc.clock <- fmax ctx.proc.clock finish

let coll_wait ctx cp =
  cp.cp_waiters <- ctx.proc.rank :: cp.cp_waiters;
  suspend ctx ~on:(Collective cp.cp_kind);
  ctx.proc.clock <- fmax ctx.proc.clock ctx.proc.resume_clock

let simple_collective ctx comm ~kind ~bytes =
  let cp, cp_key, last = coll_join ctx comm ~kind ~bytes ~color:0 ~key:0 in
  if last then coll_finish ctx comm cp cp_key ~kind else coll_wait ctx cp

(* Non-blocking collective: join without suspending; the returned request
   completes when the last participant arrives. *)
let nonblocking_collective ctx comm ~kind ~bytes =
  let cp, cp_key, last = coll_join ctx comm ~kind ~bytes ~color:0 ~key:0 in
  let req = fresh_request ctx.eng in
  cp.cp_requests <- req :: cp.cp_requests;
  if last then coll_finish ~advance_self:false ctx comm cp cp_key ~kind;
  req

let barrier ctx comm =
  emit ctx (Call.Barrier { comm = comm.c_id });
  simple_collective ctx comm ~kind:"barrier" ~bytes:0

let bcast ctx comm ~root ~dt ~count =
  emit ctx (Call.Bcast { comm = comm.c_id; root; dt; count });
  simple_collective ctx comm ~kind:"bcast" ~bytes:(Datatype.bytes dt ~count)

let reduce ctx comm ~root ~dt ~count ~op =
  emit ctx (Call.Reduce { comm = comm.c_id; root; dt; count; op });
  simple_collective ctx comm ~kind:"reduce" ~bytes:(Datatype.bytes dt ~count)

let allreduce ctx comm ~dt ~count ~op =
  emit ctx (Call.Allreduce { comm = comm.c_id; dt; count; op });
  simple_collective ctx comm ~kind:"allreduce" ~bytes:(Datatype.bytes dt ~count)

let alltoall ctx comm ~dt ~count =
  emit ctx (Call.Alltoall { comm = comm.c_id; dt; count });
  simple_collective ctx comm ~kind:"alltoall" ~bytes:(Datatype.bytes dt ~count)

let alltoallv ctx comm ~dt ~send_counts =
  if Array.length send_counts <> Array.length comm.c_ranks then
    invalid_arg "Engine.alltoallv: send_counts size mismatch";
  emit ctx (Call.Alltoallv { comm = comm.c_id; dt; send_counts });
  let total = Array.fold_left ( + ) 0 send_counts in
  simple_collective ctx comm ~kind:"alltoallv" ~bytes:(Datatype.bytes dt ~count:total)

let allgather ctx comm ~dt ~count =
  emit ctx (Call.Allgather { comm = comm.c_id; dt; count });
  simple_collective ctx comm ~kind:"allgather" ~bytes:(Datatype.bytes dt ~count)

let gather ctx comm ~root ~dt ~count =
  emit ctx (Call.Gather { comm = comm.c_id; root; dt; count });
  simple_collective ctx comm ~kind:"gather" ~bytes:(Datatype.bytes dt ~count)

let scatter ctx comm ~root ~dt ~count =
  emit ctx (Call.Scatter { comm = comm.c_id; root; dt; count });
  simple_collective ctx comm ~kind:"scatter" ~bytes:(Datatype.bytes dt ~count)

let scan ctx comm ~dt ~count ~op =
  emit ctx (Call.Scan { comm = comm.c_id; dt; count; op });
  simple_collective ctx comm ~kind:"scan" ~bytes:(Datatype.bytes dt ~count)

let exscan ctx comm ~dt ~count ~op =
  emit ctx (Call.Exscan { comm = comm.c_id; dt; count; op });
  simple_collective ctx comm ~kind:"exscan" ~bytes:(Datatype.bytes dt ~count)

let reduce_scatter ctx comm ~dt ~count ~op =
  emit ctx (Call.Reduce_scatter { comm = comm.c_id; dt; count; op });
  simple_collective ctx comm ~kind:"reduce_scatter" ~bytes:(Datatype.bytes dt ~count)

let ibarrier ctx comm =
  let call_req = ctx.eng.next_req in
  emit ctx (Call.Ibarrier { comm = comm.c_id; req = call_req });
  nonblocking_collective ctx comm ~kind:"barrier" ~bytes:0

let ibcast ctx comm ~root ~dt ~count =
  let call_req = ctx.eng.next_req in
  emit ctx (Call.Ibcast { comm = comm.c_id; root; dt; count; req = call_req });
  nonblocking_collective ctx comm ~kind:"bcast" ~bytes:(Datatype.bytes dt ~count)

let iallreduce ctx comm ~dt ~count ~op =
  let call_req = ctx.eng.next_req in
  emit ctx (Call.Iallreduce { comm = comm.c_id; dt; count; op; req = call_req });
  nonblocking_collective ctx comm ~kind:"allreduce" ~bytes:(Datatype.bytes dt ~count)

(* The id agreement behind comm_split and comm_dup: the last arriver
   groups participants by color, orders each group by (key, world rank),
   allocates one fresh communicator id per distinct color (in ascending
   color order, so ids agree across ranks), and deposits each
   participant's new communicator view, which this returns.  The caller
   emits the call afterwards: its id is not known before the collective
   completes. *)
let split_collective ctx comm ~kind ~color ~key =
  let eng = ctx.eng in
  let cp, cp_key, last = coll_join ctx comm ~kind ~bytes:0 ~color ~key in
  if last then begin
    let arrivals = List.rev cp.cp_arrived in
    let colors = List.sort_uniq compare (List.map (fun a -> a.cpl_color) arrivals) in
    List.iter
      (fun c ->
        let members =
          List.filter (fun a -> a.cpl_color = c) arrivals
          |> List.sort (fun a b -> compare (a.cpl_key, a.cpl_rank) (b.cpl_key, b.cpl_rank))
        in
        let ranks = Array.of_list (List.map (fun a -> a.cpl_rank) members) in
        let id = eng.next_comm in
        eng.next_comm <- id + 1;
        Array.iteri
          (fun idx world_rank ->
            eng.procs.(world_rank).split_result <- Some { c_id = id; c_ranks = ranks; c_my = idx })
          ranks)
      colors;
    coll_finish ctx comm cp cp_key ~kind
  end
  else coll_wait ctx cp;
  match ctx.proc.split_result with
  | Some newcomm ->
      ctx.proc.split_result <- None;
      newcomm
  | None -> assert false

(* The observer sees each call at its start clock, with a placeholder
   new id; the recorder hook gets the resolved id ([~observe:false]). *)
let comm_split ctx comm ~color ~key =
  notify_call ctx (Call.Comm_split { comm = comm.c_id; color; key; newcomm = -1 });
  let newcomm = split_collective ctx comm ~kind:"split" ~color ~key in
  emit ~observe:false ctx
    (Call.Comm_split { comm = comm.c_id; color; key; newcomm = newcomm.c_id });
  newcomm

let comm_dup ctx comm =
  notify_call ctx (Call.Comm_dup { comm = comm.c_id; newcomm = -1 });
  let newcomm = split_collective ctx comm ~kind:"dup" ~color:0 ~key:comm.c_my in
  emit ~observe:false ctx (Call.Comm_dup { comm = comm.c_id; newcomm = newcomm.c_id });
  newcomm

let comm_free ctx comm =
  emit ctx (Call.Comm_free { comm = comm.c_id });
  ctx.proc.clock <- ctx.proc.clock +. call_overhead ctx.eng

(* ------------------------------------------------------------------ *)
(* MPI-IO                                                               *)

(* Collective open: every member gets the same fresh file id, allocated by
   the last arriver (like comm_split's id agreement, reusing split_result
   is unnecessary since ids are deterministic: the last arriver bumps the
   counter once and members read it after the collective). *)
let file_open ctx comm =
  let eng = ctx.eng in
  notify_call ctx (Call.File_open { comm = comm.c_id; file = -1 });
  let cp, cp_key, last = coll_join ctx comm ~kind:"file_open" ~bytes:0 ~color:0 ~key:0 in
  if last then begin
    let id = eng.next_file in
    eng.next_file <- id + 1;
    List.iter (fun a -> eng.procs.(a.cpl_rank).file_result <- id) cp.cp_arrived;
    coll_finish ctx comm cp cp_key ~kind:"file_open"
  end
  else coll_wait ctx cp;
  let file = { f_id = ctx.proc.file_result; f_comm = comm } in
  ctx.proc.file_result <- -1;
  emit ~observe:false ctx (Call.File_open { comm = comm.c_id; file = file.f_id });
  file

let file_close ctx file =
  emit ctx (Call.File_close { file = file.f_id });
  simple_collective ctx file.f_comm ~kind:"file_close" ~bytes:0

let file_write_all ctx file ~dt ~count =
  emit ctx (Call.File_write_all { file = file.f_id; dt; count });
  simple_collective ctx file.f_comm ~kind:"file_write_all" ~bytes:(Datatype.bytes dt ~count)

let file_read_all ctx file ~dt ~count =
  emit ctx (Call.File_read_all { file = file.f_id; dt; count });
  simple_collective ctx file.f_comm ~kind:"file_read_all" ~bytes:(Datatype.bytes dt ~count)

let independent_io ctx file ~dt ~count ~write call =
  emit ctx call;
  ignore file;
  let st = ctx.eng.platform.Spec.storage in
  let bw = if write then st.Spec.write_bandwidth_bps else st.Spec.read_bandwidth_bps in
  let eff = bw /. float_of_int st.Spec.stripe_share in
  ctx.proc.clock <-
    ctx.proc.clock +. st.Spec.per_call_latency_s
    +. (float_of_int (Datatype.bytes dt ~count) /. eff)

let file_write_at ctx file ~dt ~count =
  independent_io ctx file ~dt ~count ~write:true
    (Call.File_write_at { file = file.f_id; dt; count })

let file_read_at ctx file ~dt ~count =
  independent_io ctx file ~dt ~count ~write:false
    (Call.File_read_at { file = file.f_id; dt; count })

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)

(* Relative noise of every counter reading. *)
let counter_noise = 0.01

let run ~platform ~impl ~nranks ?hook ?observer ?(seed = 42) program =
  if nranks <= 0 then invalid_arg "Engine.run: nranks must be positive";
  let root_rng = Rng.create seed in
  let procs =
    Array.init nranks (fun rank ->
        {
          rank;
          papi =
            Papi.create ~cpu:platform.Spec.cpu ~noise:counter_noise ~rng:(Rng.split root_rng);
          clock = 0.0;
          status = Fresh;
          k = None;
          resume_clock = 0.0;
          split_result = None;
          file_result = -1;
          blocked_on = Not_blocked;
          coll_seq = Hashtbl.create 4;
        })
  in
  let eng =
    {
      platform;
      impl;
      nranks;
      procs;
      runq = Queue.create ();
      unexpected = Array.init nranks (fun _ -> Queue.create ());
      posted = Array.init nranks (fun _ -> Queue.create ());
      wildcard_posted = Array.make nranks false;
      pending_colls = Hashtbl.create 8;
      hook;
      observer;
      next_req = 0;
      next_comm = 1;
      next_file = 0;
      total_calls = 0;
      call_counts = Array.make Call.n_kinds 0;
      call_bytes = Array.make Call.n_kinds 0;
      coll_latency = None;
    }
  in
  let world_ranks = Array.init nranks (fun i -> i) in
  for r = 0 to nranks - 1 do
    Queue.push r eng.runq
  done;
  let start_fiber rank =
    let proc = procs.(rank) in
    let ctx = { eng; proc; world = { c_id = 0; c_ranks = world_ranks; c_my = rank } } in
    let handler : (unit, unit) Effect.Deep.handler =
      {
        retc = (fun () -> proc.status <- Done);
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    proc.k <- Some k;
                    proc.status <- Blocked)
            | _ -> None);
      }
    in
    Effect.Deep.match_with (fun () -> program ctx) () handler
  in
  let step rank =
    let proc = procs.(rank) in
    match proc.status with
    | Fresh ->
        proc.status <- Running;
        start_fiber rank
    | Runnable -> begin
        proc.status <- Running;
        match proc.k with
        | Some k ->
            proc.k <- None;
            Effect.Deep.continue k ()
        | None -> assert false
      end
    | Running | Blocked | Done ->
        (* stale queue entry: the rank was woken twice or finished *)
        ()
  in
  let rec loop () =
    match Queue.take_opt eng.runq with
    | Some rank ->
        step rank;
        loop ()
    | None ->
        let blocked =
          Array.to_list procs
          |> List.filter (fun p -> p.status <> Done)
          |> List.map (fun p -> Printf.sprintf "rank %d on %s" p.rank (blocker_text p.blocked_on))
        in
        if blocked <> [] then
          raise
            (Deadlock
               (Printf.sprintf "%d rank(s) blocked: %s" (List.length blocked)
                  (String.concat "; " blocked)))
  in
  loop ();
  let unreceived = Array.fold_left (fun acc q -> acc + Queue.length q) 0 eng.unexpected in
  let unreceived_wildcard_prone =
    (* leftovers at a destination that posted a wildcard recv at some
       point: a different wildcard matching could have absorbed them, so
       they are not provably orphaned sends *)
    let n = ref 0 in
    Array.iteri
      (fun dst q -> if eng.wildcard_posted.(dst) then n := !n + Queue.length q)
      eng.unexpected;
    !n
  in
  if Metrics.enabled () then begin
    (* flush the per-kind accumulators gathered by [count_call] into the
       shared registry (one lookup + add per kind actually used, instead
       of two atomic increments per MPI event) *)
    for i = 0 to Call.n_kinds - 1 do
      if eng.call_counts.(i) > 0 then begin
        let name = Call.kind_name i in
        Metrics.incr (Metrics.counter ("mpi.calls." ^ name)) eng.call_counts.(i);
        Metrics.incr (Metrics.counter ("mpi.bytes." ^ name)) eng.call_bytes.(i);
        eng.call_counts.(i) <- 0;
        eng.call_bytes.(i) <- 0
      end
    done;
    Metrics.incr (Metrics.counter "engine.runs") 1;
    Metrics.incr (Metrics.counter "engine.calls") eng.total_calls;
    Metrics.observe
      (Metrics.histogram "engine.simulated_elapsed_s")
      (Array.fold_left (fun acc p -> max acc p.clock) 0.0 procs)
  end;
  {
    elapsed = Array.fold_left (fun acc p -> max acc p.clock) 0.0 procs;
    per_rank_elapsed = Array.map (fun p -> p.clock) procs;
    per_rank_counters = Array.map (fun p -> Papi.totals p.papi) procs;
    total_calls = eng.total_calls;
    unreceived_messages = unreceived;
    unreceived_wildcard_prone;
  }

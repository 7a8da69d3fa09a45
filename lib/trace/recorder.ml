module Call = Siesta_mpi.Call
module Engine = Siesta_mpi.Engine
module Papi = Siesta_perf.Papi
module Counters = Siesta_perf.Counters

type rank_state = {
  (* The dense-code stream.  The boxed [Event.t] values exist only
     transiently inside [on_event]; what persists is the off-heap code
     buffer, so GC-visible memory stays proportional to the number of
     distinct events. *)
  codes : Soa.buf;
  mutable raw_bytes : int;
  req_pool : Pools.t;
  req_map : (int, int) Hashtbl.t;  (* engine request id -> pooled id *)
  comm_pool : Pools.t;
  comm_map : (int, int) Hashtbl.t;  (* engine comm id -> pooled id *)
  file_pool : Pools.t;
  file_map : (int, int) Hashtbl.t;  (* engine file id -> pooled id *)
}

type t = {
  nranks : int;
  relative_ranks : bool;
  intern : Soa.Intern.t;  (* shared across ranks; codes are process-global *)
  table : Compute_table.t;
  ranks : rank_state array;
}

(* Bytes a real tracer would write for one computation record: six 8-byte
   counters plus a 16-byte header. *)
let compute_record_bytes = 64

(* Simulated cost of one intercepted call: interception plus two counter
   reads. *)
let per_event_overhead = 0.6e-6

let create ~nranks ?(cluster_threshold = 0.05) ?(relative_ranks = true) () =
  let make_rank () =
    let comm_pool = Pools.create () in
    let comm_map = Hashtbl.create 8 in
    (* MPI_COMM_WORLD pre-exists: engine comm 0 -> pool number 0. *)
    Hashtbl.replace comm_map 0 (Pools.acquire comm_pool);
    {
      codes = Soa.create ();
      raw_bytes = 0;
      req_pool = Pools.create ();
      req_map = Hashtbl.create 16;
      comm_pool;
      comm_map;
      file_pool = Pools.create ();
      file_map = Hashtbl.create 4;
    }
  in
  {
    nranks;
    relative_ranks;
    intern = Soa.Intern.create ();
    table = Compute_table.create ~threshold:cluster_threshold;
    ranks = Array.init nranks (fun _ -> make_rank ());
  }

let rel_peer t ~rank peer =
  if peer = Call.any_source then peer
  else if t.relative_ranks then (peer - rank + t.nranks) mod t.nranks
  else peer

let encode_p2p t ~rank (p : Call.p2p) : Event.p2p =
  { rel_peer = rel_peer t ~rank p.peer; tag = p.tag; dt = p.dt; count = p.count }

let pooled_comm st comm =
  match Hashtbl.find_opt st.comm_map comm with
  | Some id -> id
  | None ->
      (* A communicator we did not see created (should not happen): give
         it a stable pooled number anyway. *)
      let id = Pools.acquire st.comm_pool in
      Hashtbl.replace st.comm_map comm id;
      id

let acquire_req st engine_id =
  let id = Pools.acquire st.req_pool in
  Hashtbl.replace st.req_map engine_id id;
  id

let release_req st engine_id =
  match Hashtbl.find_opt st.req_map engine_id with
  | Some id ->
      Pools.release st.req_pool id;
      Hashtbl.remove st.req_map engine_id;
      id
  | None ->
      (* A wait on a request from a call the tracer did not see; encode a
         fresh number so the trace stays well-formed. *)
      let id = Pools.acquire st.req_pool in
      Pools.release st.req_pool id;
      id

let encode t ~rank (call : Call.t) : Event.t =
  let st = t.ranks.(rank) in
  match call with
  | Call.Send p -> Event.Send (encode_p2p t ~rank p)
  | Call.Recv p -> Event.Recv (encode_p2p t ~rank p)
  | Call.Isend (p, req) -> Event.Isend (encode_p2p t ~rank p, acquire_req st req)
  | Call.Irecv (p, req) -> Event.Irecv (encode_p2p t ~rank p, acquire_req st req)
  | Call.Wait req -> Event.Wait (release_req st req)
  | Call.Waitall reqs -> Event.Waitall (List.map (release_req st) reqs)
  | Call.Sendrecv { send; recv } ->
      Event.Sendrecv { send = encode_p2p t ~rank send; recv = encode_p2p t ~rank recv }
  | Call.Barrier { comm } -> Event.Barrier { comm = pooled_comm st comm }
  | Call.Bcast { comm; root; dt; count } ->
      Event.Bcast { comm = pooled_comm st comm; root; dt; count }
  | Call.Reduce { comm; root; dt; count; op } ->
      Event.Reduce { comm = pooled_comm st comm; root; dt; count; op }
  | Call.Allreduce { comm; dt; count; op } ->
      Event.Allreduce { comm = pooled_comm st comm; dt; count; op }
  | Call.Alltoall { comm; dt; count } -> Event.Alltoall { comm = pooled_comm st comm; dt; count }
  | Call.Alltoallv { comm; dt; send_counts } ->
      Event.Alltoallv { comm = pooled_comm st comm; dt; send_counts }
  | Call.Allgather { comm; dt; count } ->
      Event.Allgather { comm = pooled_comm st comm; dt; count }
  | Call.Gather { comm; root; dt; count } ->
      Event.Gather { comm = pooled_comm st comm; root; dt; count }
  | Call.Scatter { comm; root; dt; count } ->
      Event.Scatter { comm = pooled_comm st comm; root; dt; count }
  | Call.Scan { comm; dt; count; op } -> Event.Scan { comm = pooled_comm st comm; dt; count; op }
  | Call.Exscan { comm; dt; count; op } ->
      Event.Exscan { comm = pooled_comm st comm; dt; count; op }
  | Call.Reduce_scatter { comm; dt; count; op } ->
      Event.Reduce_scatter { comm = pooled_comm st comm; dt; count; op }
  | Call.Ibarrier { comm; req } ->
      Event.Ibarrier { comm = pooled_comm st comm; req = acquire_req st req }
  | Call.Ibcast { comm; root; dt; count; req } ->
      Event.Ibcast { comm = pooled_comm st comm; root; dt; count; req = acquire_req st req }
  | Call.Iallreduce { comm; dt; count; op; req } ->
      Event.Iallreduce { comm = pooled_comm st comm; dt; count; op; req = acquire_req st req }
  | Call.Comm_split { comm; color; key; newcomm } ->
      let c = pooled_comm st comm in
      let n = Pools.acquire st.comm_pool in
      Hashtbl.replace st.comm_map newcomm n;
      Event.Comm_split { comm = c; color; key; newcomm = n }
  | Call.Comm_dup { comm; newcomm } ->
      let c = pooled_comm st comm in
      let n = Pools.acquire st.comm_pool in
      Hashtbl.replace st.comm_map newcomm n;
      Event.Comm_dup { comm = c; newcomm = n }
  | Call.Comm_free { comm } ->
      let c = pooled_comm st comm in
      (match Hashtbl.find_opt st.comm_map comm with
      | Some id ->
          Pools.release st.comm_pool id;
          Hashtbl.remove st.comm_map comm
      | None -> ());
      Event.Comm_free { comm = c }
  | Call.File_open { comm; file } ->
      let c = pooled_comm st comm in
      let f = Pools.acquire st.file_pool in
      Hashtbl.replace st.file_map file f;
      Event.File_open { comm = c; file = f }
  | Call.File_close { file } ->
      let f = Option.value ~default:0 (Hashtbl.find_opt st.file_map file) in
      (match Hashtbl.find_opt st.file_map file with
      | Some id ->
          Pools.release st.file_pool id;
          Hashtbl.remove st.file_map file
      | None -> ());
      Event.File_close { file = f }
  | Call.File_write_all { file; dt; count } ->
      Event.File_write_all
        { file = Option.value ~default:0 (Hashtbl.find_opt st.file_map file); dt; count }
  | Call.File_read_all { file; dt; count } ->
      Event.File_read_all
        { file = Option.value ~default:0 (Hashtbl.find_opt st.file_map file); dt; count }
  | Call.File_write_at { file; dt; count } ->
      Event.File_write_at
        { file = Option.value ~default:0 (Hashtbl.find_opt st.file_map file); dt; count }
  | Call.File_read_at { file; dt; count } ->
      Event.File_read_at
        { file = Option.value ~default:0 (Hashtbl.find_opt st.file_map file); dt; count }

(* Intern to a dense code and append it off-heap; the boxed [ev] becomes
   garbage immediately. *)
let push t st ev bytes =
  Soa.append st.codes (Soa.Intern.intern t.intern ev);
  st.raw_bytes <- st.raw_bytes + bytes

let on_event t ~rank ~papi ~call =
  let st = t.ranks.(rank) in
  let delta = Papi.read_delta papi in
  if delta.Counters.cyc > 0.0 then begin
    let cluster = Compute_table.classify t.table delta in
    push t st (Event.Compute cluster) compute_record_bytes
  end;
  push t st (encode t ~rank call) (Call.record_bytes call)

let hook t =
  { Engine.on_event = (fun ~rank ~papi ~call -> on_event t ~rank ~papi ~call); per_event_overhead }

let events t rank =
  let codes = t.ranks.(rank).codes in
  let defs = Soa.Intern.defs t.intern in
  Array.init (Soa.length codes) (fun i -> defs.(Soa.unsafe_get codes i))

let event_defs t = Soa.Intern.defs t.intern
let codes t rank = t.ranks.(rank).codes
let compute_table t = t.table
let raw_trace_bytes t = Array.fold_left (fun acc st -> acc + st.raw_bytes) 0 t.ranks
let total_events t = Array.fold_left (fun acc st -> acc + Soa.length st.codes) 0 t.ranks
let nranks t = t.nranks

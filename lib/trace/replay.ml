module Engine = Siesta_mpi.Engine
module Call = Siesta_mpi.Call

type t = {
  ctx : Engine.ctx;
  compute : int -> unit;
  rank : int;
  size : int;
  reqs : (int, Engine.request) Hashtbl.t;
  comms : (int, Engine.comm) Hashtbl.t;
  files : (int, Engine.file) Hashtbl.t;
}

let create ctx ~compute =
  let comms = Hashtbl.create 4 in
  Hashtbl.replace comms 0 (Engine.comm_world ctx);
  {
    ctx;
    compute;
    rank = Engine.rank ctx;
    size = Engine.size ctx;
    reqs = Hashtbl.create 16;
    comms;
    files = Hashtbl.create 4;
  }

let unbound kind slot = invalid_arg (Printf.sprintf "Replay: unbound %s slot %d" kind slot)

let comm t slot =
  match Hashtbl.find_opt t.comms slot with Some c -> c | None -> unbound "communicator" slot

let file t slot =
  match Hashtbl.find_opt t.files slot with Some f -> f | None -> unbound "file" slot

(* a completed request frees its slot for the next post *)
let take_req t slot =
  match Hashtbl.find_opt t.reqs slot with
  | Some r ->
      Hashtbl.remove t.reqs slot;
      r
  | None -> unbound "request" slot

let rec take_reqs t = function
  | [] -> []
  | slot :: rest ->
      let r = take_req t slot in
      r :: take_reqs t rest

let peer t rel = if rel = Call.any_source then rel else (t.rank + rel) mod t.size

let exec t (ev : Event.t) =
  let ctx = t.ctx in
  match ev with
  | Compute cid -> t.compute cid
  | Send { rel_peer; tag; dt; count } -> Engine.send ctx ~dest:(peer t rel_peer) ~tag ~dt ~count
  | Recv { rel_peer; tag; dt; count } -> Engine.recv ctx ~src:(peer t rel_peer) ~tag ~dt ~count
  | Isend ({ rel_peer; tag; dt; count }, slot) ->
      Hashtbl.replace t.reqs slot (Engine.isend ctx ~dest:(peer t rel_peer) ~tag ~dt ~count)
  | Irecv ({ rel_peer; tag; dt; count }, slot) ->
      Hashtbl.replace t.reqs slot (Engine.irecv ctx ~src:(peer t rel_peer) ~tag ~dt ~count)
  | Wait slot -> Engine.wait ctx (take_req t slot)
  | Waitall slots -> Engine.waitall ctx (take_reqs t slots)
  | Sendrecv { send; recv } ->
      Engine.sendrecv ctx ~dest:(peer t send.rel_peer) ~send_tag:send.tag
        ~src:(peer t recv.rel_peer) ~recv_tag:recv.tag ~dt:send.dt ~send_count:send.count
        ~recv_count:recv.count
  | Barrier { comm = c } -> Engine.barrier ctx (comm t c)
  | Bcast { comm = c; root; dt; count } -> Engine.bcast ctx (comm t c) ~root ~dt ~count
  | Reduce { comm = c; root; dt; count; op } -> Engine.reduce ctx (comm t c) ~root ~dt ~count ~op
  | Allreduce { comm = c; dt; count; op } -> Engine.allreduce ctx (comm t c) ~dt ~count ~op
  | Alltoall { comm = c; dt; count } -> Engine.alltoall ctx (comm t c) ~dt ~count
  | Alltoallv { comm = c; dt; send_counts } -> Engine.alltoallv ctx (comm t c) ~dt ~send_counts
  | Allgather { comm = c; dt; count } -> Engine.allgather ctx (comm t c) ~dt ~count
  | Gather { comm = c; root; dt; count } -> Engine.gather ctx (comm t c) ~root ~dt ~count
  | Scatter { comm = c; root; dt; count } -> Engine.scatter ctx (comm t c) ~root ~dt ~count
  | Scan { comm = c; dt; count; op } -> Engine.scan ctx (comm t c) ~dt ~count ~op
  | Exscan { comm = c; dt; count; op } -> Engine.exscan ctx (comm t c) ~dt ~count ~op
  | Reduce_scatter { comm = c; dt; count; op } ->
      Engine.reduce_scatter ctx (comm t c) ~dt ~count ~op
  | Ibarrier { comm = c; req } -> Hashtbl.replace t.reqs req (Engine.ibarrier ctx (comm t c))
  | Ibcast { comm = c; root; dt; count; req } ->
      Hashtbl.replace t.reqs req (Engine.ibcast ctx (comm t c) ~root ~dt ~count)
  | Iallreduce { comm = c; dt; count; op; req } ->
      Hashtbl.replace t.reqs req (Engine.iallreduce ctx (comm t c) ~dt ~count ~op)
  | Comm_split { comm = c; color; key; newcomm } ->
      Hashtbl.replace t.comms newcomm (Engine.comm_split ctx (comm t c) ~color ~key)
  | Comm_dup { comm = c; newcomm } ->
      Hashtbl.replace t.comms newcomm (Engine.comm_dup ctx (comm t c))
  | Comm_free { comm = c } ->
      Engine.comm_free ctx (comm t c);
      Hashtbl.remove t.comms c
  | File_open { comm = c; file = f } ->
      Hashtbl.replace t.files f (Engine.file_open ctx (comm t c))
  | File_close { file = f } ->
      Engine.file_close ctx (file t f);
      Hashtbl.remove t.files f
  | File_write_all { file = f; dt; count } -> Engine.file_write_all ctx (file t f) ~dt ~count
  | File_read_all { file = f; dt; count } -> Engine.file_read_all ctx (file t f) ~dt ~count
  | File_write_at { file = f; dt; count } -> Engine.file_write_at ctx (file t f) ~dt ~count
  | File_read_at { file = f; dt; count } -> Engine.file_read_at ctx (file t f) ~dt ~count

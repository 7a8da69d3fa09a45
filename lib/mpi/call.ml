type p2p = { peer : int; tag : int; dt : Datatype.t; count : int }

type t =
  | Send of p2p
  | Recv of p2p
  | Isend of p2p * int
  | Irecv of p2p * int
  | Wait of int
  | Waitall of int list
  | Sendrecv of { send : p2p; recv : p2p }
  | Barrier of { comm : int }
  | Bcast of { comm : int; root : int; dt : Datatype.t; count : int }
  | Reduce of { comm : int; root : int; dt : Datatype.t; count : int; op : Op.t }
  | Allreduce of { comm : int; dt : Datatype.t; count : int; op : Op.t }
  | Alltoall of { comm : int; dt : Datatype.t; count : int }
  | Alltoallv of { comm : int; dt : Datatype.t; send_counts : int array }
  | Allgather of { comm : int; dt : Datatype.t; count : int }
  | Gather of { comm : int; root : int; dt : Datatype.t; count : int }
  | Scatter of { comm : int; root : int; dt : Datatype.t; count : int }
  | Scan of { comm : int; dt : Datatype.t; count : int; op : Op.t }
  | Exscan of { comm : int; dt : Datatype.t; count : int; op : Op.t }
  | Reduce_scatter of { comm : int; dt : Datatype.t; count : int; op : Op.t }
  | Ibarrier of { comm : int; req : int }
  | Ibcast of { comm : int; root : int; dt : Datatype.t; count : int; req : int }
  | Iallreduce of { comm : int; dt : Datatype.t; count : int; op : Op.t; req : int }
  | Comm_split of { comm : int; color : int; key : int; newcomm : int }
  | Comm_dup of { comm : int; newcomm : int }
  | Comm_free of { comm : int }
  | File_open of { comm : int; file : int }
  | File_close of { file : int }
  | File_write_all of { file : int; dt : Datatype.t; count : int }
  | File_read_all of { file : int; dt : Datatype.t; count : int }
  | File_write_at of { file : int; dt : Datatype.t; count : int }
  | File_read_at of { file : int; dt : Datatype.t; count : int }

let any_source = -1
let any_tag = -1

let n_kinds = 31

(* Names by dense constructor index (same order as the type and as
   [index] below).  [name] goes through this table so the two can never
   drift; [kind_name] lets aggregators that bucket by [index] (the
   engine's per-kind metric flush) recover the MPI name without holding
   a witness value of the constructor. *)
let kind_names =
  [|
    "MPI_Send";
    "MPI_Recv";
    "MPI_Isend";
    "MPI_Irecv";
    "MPI_Wait";
    "MPI_Waitall";
    "MPI_Sendrecv";
    "MPI_Barrier";
    "MPI_Bcast";
    "MPI_Reduce";
    "MPI_Allreduce";
    "MPI_Alltoall";
    "MPI_Alltoallv";
    "MPI_Allgather";
    "MPI_Gather";
    "MPI_Scatter";
    "MPI_Scan";
    "MPI_Exscan";
    "MPI_Reduce_scatter";
    "MPI_Ibarrier";
    "MPI_Ibcast";
    "MPI_Iallreduce";
    "MPI_Comm_split";
    "MPI_Comm_dup";
    "MPI_Comm_free";
    "MPI_File_open";
    "MPI_File_close";
    "MPI_File_write_all";
    "MPI_File_read_all";
    "MPI_File_write_at";
    "MPI_File_read_at";
  |]

let kind_name i = kind_names.(i)

(* Dense constructor index (same order as the type).  Used by the
   engine's per-kind metric cache: an array load on this index replaces
   a string-keyed Hashtbl lookup on [name] on the per-event hot path. *)
let index = function
  | Send _ -> 0
  | Recv _ -> 1
  | Isend _ -> 2
  | Irecv _ -> 3
  | Wait _ -> 4
  | Waitall _ -> 5
  | Sendrecv _ -> 6
  | Barrier _ -> 7
  | Bcast _ -> 8
  | Reduce _ -> 9
  | Allreduce _ -> 10
  | Alltoall _ -> 11
  | Alltoallv _ -> 12
  | Allgather _ -> 13
  | Gather _ -> 14
  | Scatter _ -> 15
  | Scan _ -> 16
  | Exscan _ -> 17
  | Reduce_scatter _ -> 18
  | Ibarrier _ -> 19
  | Ibcast _ -> 20
  | Iallreduce _ -> 21
  | Comm_split _ -> 22
  | Comm_dup _ -> 23
  | Comm_free _ -> 24
  | File_open _ -> 25
  | File_close _ -> 26
  | File_write_all _ -> 27
  | File_read_all _ -> 28
  | File_write_at _ -> 29
  | File_read_at _ -> 30

let name t = kind_names.(index t)

let payload_bytes = function
  | Send p | Isend (p, _) | Recv p | Irecv (p, _) -> Datatype.bytes p.dt ~count:p.count
  | Sendrecv { send; recv } ->
      Datatype.bytes send.dt ~count:send.count + Datatype.bytes recv.dt ~count:recv.count
  | Wait _ | Waitall _ | Barrier _ | Ibarrier _ | Comm_split _ | Comm_dup _ | Comm_free _
  | File_open _ | File_close _ ->
      0
  | Ibcast { dt; count; _ } | Iallreduce { dt; count; _ } -> Datatype.bytes dt ~count
  | File_write_all { dt; count; _ }
  | File_read_all { dt; count; _ }
  | File_write_at { dt; count; _ }
  | File_read_at { dt; count; _ } ->
      Datatype.bytes dt ~count
  | Bcast { dt; count; _ }
  | Reduce { dt; count; _ }
  | Allreduce { dt; count; _ }
  | Alltoall { dt; count; _ }
  | Allgather { dt; count; _ }
  | Gather { dt; count; _ }
  | Scatter { dt; count; _ }
  | Scan { dt; count; _ }
  | Exscan { dt; count; _ }
  | Reduce_scatter { dt; count; _ } ->
      Datatype.bytes dt ~count
  | Alltoallv { dt; send_counts; _ } ->
      Datatype.bytes dt ~count:(Array.fold_left ( + ) 0 send_counts)

let is_blocking_p2p = function Send _ | Recv _ | Sendrecv _ -> true | _ -> false

let p2p_str tag_name p =
  Printf.sprintf "%s(peer=%d,tag=%d,dt=%s,count=%d)" tag_name p.peer p.tag (Datatype.name p.dt)
    p.count

let to_string = function
  | Send p -> p2p_str "Send" p
  | Recv p -> p2p_str "Recv" p
  | Isend (p, req) -> Printf.sprintf "%s[req=%d]" (p2p_str "Isend" p) req
  | Irecv (p, req) -> Printf.sprintf "%s[req=%d]" (p2p_str "Irecv" p) req
  | Wait req -> Printf.sprintf "Wait(req=%d)" req
  | Waitall reqs -> Printf.sprintf "Waitall(%s)" (String.concat "," (List.map string_of_int reqs))
  | Sendrecv { send; recv } ->
      Printf.sprintf "Sendrecv(%s,%s)" (p2p_str "s" send) (p2p_str "r" recv)
  | Barrier { comm } -> Printf.sprintf "Barrier(comm=%d)" comm
  | Bcast { comm; root; dt; count } ->
      Printf.sprintf "Bcast(comm=%d,root=%d,dt=%s,count=%d)" comm root (Datatype.name dt) count
  | Reduce { comm; root; dt; count; op } ->
      Printf.sprintf "Reduce(comm=%d,root=%d,dt=%s,count=%d,op=%s)" comm root (Datatype.name dt)
        count (Op.name op)
  | Allreduce { comm; dt; count; op } ->
      Printf.sprintf "Allreduce(comm=%d,dt=%s,count=%d,op=%s)" comm (Datatype.name dt) count
        (Op.name op)
  | Alltoall { comm; dt; count } ->
      Printf.sprintf "Alltoall(comm=%d,dt=%s,count=%d)" comm (Datatype.name dt) count
  | Alltoallv { comm; dt; send_counts } ->
      Printf.sprintf "Alltoallv(comm=%d,dt=%s,counts=%s)" comm (Datatype.name dt)
        (String.concat "," (Array.to_list (Array.map string_of_int send_counts)))
  | Allgather { comm; dt; count } ->
      Printf.sprintf "Allgather(comm=%d,dt=%s,count=%d)" comm (Datatype.name dt) count
  | Gather { comm; root; dt; count } ->
      Printf.sprintf "Gather(comm=%d,root=%d,dt=%s,count=%d)" comm root (Datatype.name dt) count
  | Scatter { comm; root; dt; count } ->
      Printf.sprintf "Scatter(comm=%d,root=%d,dt=%s,count=%d)" comm root (Datatype.name dt) count
  | Scan { comm; dt; count; op } ->
      Printf.sprintf "Scan(comm=%d,dt=%s,count=%d,op=%s)" comm (Datatype.name dt) count (Op.name op)
  | Exscan { comm; dt; count; op } ->
      Printf.sprintf "Exscan(comm=%d,dt=%s,count=%d,op=%s)" comm (Datatype.name dt) count
        (Op.name op)
  | Reduce_scatter { comm; dt; count; op } ->
      Printf.sprintf "ReduceScatter(comm=%d,dt=%s,count=%d,op=%s)" comm (Datatype.name dt) count
        (Op.name op)
  | Ibarrier { comm; req } -> Printf.sprintf "Ibarrier(comm=%d)[req=%d]" comm req
  | Ibcast { comm; root; dt; count; req } ->
      Printf.sprintf "Ibcast(comm=%d,root=%d,dt=%s,count=%d)[req=%d]" comm root
        (Datatype.name dt) count req
  | Iallreduce { comm; dt; count; op; req } ->
      Printf.sprintf "Iallreduce(comm=%d,dt=%s,count=%d,op=%s)[req=%d]" comm (Datatype.name dt)
        count (Op.name op) req
  | Comm_split { comm; color; key; newcomm } ->
      Printf.sprintf "Comm_split(comm=%d,color=%d,key=%d,new=%d)" comm color key newcomm
  | Comm_dup { comm; newcomm } -> Printf.sprintf "Comm_dup(comm=%d,new=%d)" comm newcomm
  | Comm_free { comm } -> Printf.sprintf "Comm_free(comm=%d)" comm
  | File_open { comm; file } -> Printf.sprintf "File_open(comm=%d,file=%d)" comm file
  | File_close { file } -> Printf.sprintf "File_close(file=%d)" file
  | File_write_all { file; dt; count } ->
      Printf.sprintf "File_write_all(file=%d,dt=%s,count=%d)" file (Datatype.name dt) count
  | File_read_all { file; dt; count } ->
      Printf.sprintf "File_read_all(file=%d,dt=%s,count=%d)" file (Datatype.name dt) count
  | File_write_at { file; dt; count } ->
      Printf.sprintf "File_write_at(file=%d,dt=%s,count=%d)" file (Datatype.name dt) count
  | File_read_at { file; dt; count } ->
      Printf.sprintf "File_read_at(file=%d,dt=%s,count=%d)" file (Datatype.name dt) count

(* [record_bytes] runs once per simulated call, so it sums widths
   instead of building the [to_string] text: each format's literal part
   (written below as the format with its conversions removed) plus the
   printed width of every field.  The trace tests check it against
   [String.length (to_string t)] on every constructor. *)

(* Length of [string_of_int n].  Divides towards zero without negating,
   so [min_int] needs no special case. *)
let int_width n =
  let rec go n w = if n > -10 && n < 10 then w else go (n / 10) (w + 1) in
  go n (if n < 0 then 2 else 1)

(* Length of the comma-separated decimal list of [xs]; [fold] is the
   container's [fold_left]. *)
let ints_width fold xs = max 0 (fold (fun w x -> w + 1 + int_width x) (-1) xs)

let dt_width dt = String.length (Datatype.name dt)
let op_width op = String.length (Op.name op)

(* [p2p_str] without its tag name *)
let p2p_width p =
  String.length "(peer=,tag=,dt=,count=)"
  + int_width p.peer + int_width p.tag + dt_width p.dt + int_width p.count

let text_width = function
  | Send p -> String.length "Send" + p2p_width p
  | Recv p -> String.length "Recv" + p2p_width p
  | Isend (p, req) -> String.length "Isend[req=]" + p2p_width p + int_width req
  | Irecv (p, req) -> String.length "Irecv[req=]" + p2p_width p + int_width req
  | Wait req -> String.length "Wait(req=)" + int_width req
  | Waitall reqs -> String.length "Waitall()" + ints_width List.fold_left reqs
  | Sendrecv { send; recv } -> String.length "Sendrecv(s,r)" + p2p_width send + p2p_width recv
  | Barrier { comm } -> String.length "Barrier(comm=)" + int_width comm
  | Bcast { comm; root; dt; count } ->
      String.length "Bcast(comm=,root=,dt=,count=)"
      + int_width comm + int_width root + dt_width dt + int_width count
  | Reduce { comm; root; dt; count; op } ->
      String.length "Reduce(comm=,root=,dt=,count=,op=)"
      + int_width comm + int_width root + dt_width dt + int_width count + op_width op
  | Allreduce { comm; dt; count; op } ->
      String.length "Allreduce(comm=,dt=,count=,op=)"
      + int_width comm + dt_width dt + int_width count + op_width op
  | Alltoall { comm; dt; count } ->
      String.length "Alltoall(comm=,dt=,count=)" + int_width comm + dt_width dt + int_width count
  | Alltoallv { comm; dt; send_counts } ->
      String.length "Alltoallv(comm=,dt=,counts=)"
      + int_width comm + dt_width dt + ints_width Array.fold_left send_counts
  | Allgather { comm; dt; count } ->
      String.length "Allgather(comm=,dt=,count=)" + int_width comm + dt_width dt + int_width count
  | Gather { comm; root; dt; count } ->
      String.length "Gather(comm=,root=,dt=,count=)"
      + int_width comm + int_width root + dt_width dt + int_width count
  | Scatter { comm; root; dt; count } ->
      String.length "Scatter(comm=,root=,dt=,count=)"
      + int_width comm + int_width root + dt_width dt + int_width count
  | Scan { comm; dt; count; op } ->
      String.length "Scan(comm=,dt=,count=,op=)"
      + int_width comm + dt_width dt + int_width count + op_width op
  | Exscan { comm; dt; count; op } ->
      String.length "Exscan(comm=,dt=,count=,op=)"
      + int_width comm + dt_width dt + int_width count + op_width op
  | Reduce_scatter { comm; dt; count; op } ->
      String.length "ReduceScatter(comm=,dt=,count=,op=)"
      + int_width comm + dt_width dt + int_width count + op_width op
  | Ibarrier { comm; req } -> String.length "Ibarrier(comm=)[req=]" + int_width comm + int_width req
  | Ibcast { comm; root; dt; count; req } ->
      String.length "Ibcast(comm=,root=,dt=,count=)[req=]"
      + int_width comm + int_width root + dt_width dt + int_width count + int_width req
  | Iallreduce { comm; dt; count; op; req } ->
      String.length "Iallreduce(comm=,dt=,count=,op=)[req=]"
      + int_width comm + dt_width dt + int_width count + op_width op + int_width req
  | Comm_split { comm; color; key; newcomm } ->
      String.length "Comm_split(comm=,color=,key=,new=)"
      + int_width comm + int_width color + int_width key + int_width newcomm
  | Comm_dup { comm; newcomm } ->
      String.length "Comm_dup(comm=,new=)" + int_width comm + int_width newcomm
  | Comm_free { comm } -> String.length "Comm_free(comm=)" + int_width comm
  | File_open { comm; file } ->
      String.length "File_open(comm=,file=)" + int_width comm + int_width file
  | File_close { file } -> String.length "File_close(file=)" + int_width file
  | File_write_all { file; dt; count } ->
      String.length "File_write_all(file=,dt=,count=)" + int_width file + dt_width dt
      + int_width count
  | File_read_all { file; dt; count } ->
      String.length "File_read_all(file=,dt=,count=)" + int_width file + dt_width dt
      + int_width count
  | File_write_at { file; dt; count } ->
      String.length "File_write_at(file=,dt=,count=)" + int_width file + dt_width dt
      + int_width count
  | File_read_at { file; dt; count } ->
      String.length "File_read_at(file=,dt=,count=)" + int_width file + dt_width dt
      + int_width count

(* 24 bytes of per-record timestamp + rank + counter snapshot fields, as a
   binary trace would carry. *)
let record_bytes t = text_width t + 24

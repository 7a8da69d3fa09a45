module Datatype = Siesta_mpi.Datatype
module Op = Siesta_mpi.Op

type p2p = { rel_peer : int; tag : int; dt : Datatype.t; count : int }

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
  | Compute of int

let p2p_key tag_name p =
  Printf.sprintf "%s(%d,%d,%s,%d)" tag_name p.rel_peer p.tag (Datatype.name p.dt) p.count

let to_key = function
  | Send p -> p2p_key "S" p
  | Recv p -> p2p_key "R" p
  | Isend (p, req) -> Printf.sprintf "%s#%d" (p2p_key "IS" p) req
  | Irecv (p, req) -> Printf.sprintf "%s#%d" (p2p_key "IR" p) req
  | Wait req -> Printf.sprintf "W(%d)" req
  | Waitall reqs -> Printf.sprintf "WA(%s)" (String.concat "," (List.map string_of_int reqs))
  | Sendrecv { send; recv } -> Printf.sprintf "SR(%s;%s)" (p2p_key "s" send) (p2p_key "r" recv)
  | Barrier { comm } -> Printf.sprintf "BAR(%d)" comm
  | Bcast { comm; root; dt; count } ->
      Printf.sprintf "BC(%d,%d,%s,%d)" comm root (Datatype.name dt) count
  | Reduce { comm; root; dt; count; op } ->
      Printf.sprintf "RD(%d,%d,%s,%d,%s)" comm root (Datatype.name dt) count (Op.name op)
  | Allreduce { comm; dt; count; op } ->
      Printf.sprintf "AR(%d,%s,%d,%s)" comm (Datatype.name dt) count (Op.name op)
  | Alltoall { comm; dt; count } -> Printf.sprintf "A2A(%d,%s,%d)" comm (Datatype.name dt) count
  | Alltoallv { comm; dt; send_counts } ->
      Printf.sprintf "A2AV(%d,%s,%s)" comm (Datatype.name dt)
        (String.concat "," (Array.to_list (Array.map string_of_int send_counts)))
  | Allgather { comm; dt; count } -> Printf.sprintf "AG(%d,%s,%d)" comm (Datatype.name dt) count
  | Gather { comm; root; dt; count } ->
      Printf.sprintf "G(%d,%d,%s,%d)" comm root (Datatype.name dt) count
  | Scatter { comm; root; dt; count } ->
      Printf.sprintf "SC(%d,%d,%s,%d)" comm root (Datatype.name dt) count
  | Scan { comm; dt; count; op } ->
      Printf.sprintf "SN(%d,%s,%d,%s)" comm (Datatype.name dt) count (Op.name op)
  | Exscan { comm; dt; count; op } ->
      Printf.sprintf "EX(%d,%s,%d,%s)" comm (Datatype.name dt) count (Op.name op)
  | Reduce_scatter { comm; dt; count; op } ->
      Printf.sprintf "RS(%d,%s,%d,%s)" comm (Datatype.name dt) count (Op.name op)
  | Ibarrier { comm; req } -> Printf.sprintf "IB(%d)#%d" comm req
  | Ibcast { comm; root; dt; count; req } ->
      Printf.sprintf "IBC(%d,%d,%s,%d)#%d" comm root (Datatype.name dt) count req
  | Iallreduce { comm; dt; count; op; req } ->
      Printf.sprintf "IAR(%d,%s,%d,%s)#%d" comm (Datatype.name dt) count (Op.name op) req
  | Comm_split { comm; color; key; newcomm } ->
      Printf.sprintf "CS(%d,%d,%d,%d)" comm color key newcomm
  | Comm_dup { comm; newcomm } -> Printf.sprintf "CD(%d,%d)" comm newcomm
  | Comm_free { comm } -> Printf.sprintf "CF(%d)" comm
  | File_open { comm; file } -> Printf.sprintf "FO(%d,%d)" comm file
  | File_close { file } -> Printf.sprintf "FC(%d)" file
  | File_write_all { file; dt; count } ->
      Printf.sprintf "FW(%d,%s,%d)" file (Datatype.name dt) count
  | File_read_all { file; dt; count } ->
      Printf.sprintf "FR(%d,%s,%d)" file (Datatype.name dt) count
  | File_write_at { file; dt; count } ->
      Printf.sprintf "FWI(%d,%s,%d)" file (Datatype.name dt) count
  | File_read_at { file; dt; count } ->
      Printf.sprintf "FRI(%d,%s,%d)" file (Datatype.name dt) count
  | Compute id -> Printf.sprintf "CP(%d)" id

let malformed key = failwith (Printf.sprintf "Event.of_key: malformed %S" key)

(* "peer,tag,DT,count" *)
let parse_p2p key s =
  match String.split_on_char ',' s with
  | [ a; b; c; d ] -> begin
      match
        {
          rel_peer = int_of_string a;
          tag = int_of_string b;
          dt = Datatype.of_name c;
          count = int_of_string d;
        }
      with
      | p -> p
      | exception _ -> malformed key
    end
  | _ -> malformed key

let parse_ints key s =
  if s = "" then []
  else
    try List.map int_of_string (String.split_on_char ',' s) with _ -> malformed key

let of_key_impl key =
  (* split "PREFIX(args)[#suffix]" *)
  let lparen = try String.index key '(' with Not_found -> malformed key in
  let rparen = try String.rindex key ')' with Not_found -> malformed key in
  if rparen < lparen then malformed key;
  let prefix = String.sub key 0 lparen in
  let args = String.sub key (lparen + 1) (rparen - lparen - 1) in
  let suffix =
    if rparen + 1 < String.length key && key.[rparen + 1] = '#' then
      Some (String.sub key (rparen + 2) (String.length key - rparen - 2))
    else None
  in
  let int_of s = try int_of_string s with _ -> malformed key in
  let split = String.split_on_char ',' args in
  match (prefix, suffix) with
  | "S", None -> Send (parse_p2p key args)
  | "R", None -> Recv (parse_p2p key args)
  | "IS", Some r -> Isend (parse_p2p key args, int_of r)
  | "IR", Some r -> Irecv (parse_p2p key args, int_of r)
  | "W", None -> Wait (int_of args)
  | "WA", None -> Waitall (parse_ints key args)
  | "SR", None -> begin
      (* "s(p2p);r(p2p)" *)
      match String.split_on_char ';' args with
      | [ s_part; r_part ] ->
          let inner part tag =
            let l = String.length tag in
            if String.length part < l + 2 || String.sub part 0 l <> tag then malformed key;
            String.sub part (l + 1) (String.length part - l - 2)
          in
          Sendrecv
            { send = parse_p2p key (inner s_part "s"); recv = parse_p2p key (inner r_part "r") }
      | _ -> malformed key
    end
  | "BAR", None -> Barrier { comm = int_of args }
  | "IB", Some r -> Ibarrier { comm = int_of args; req = int_of r }
  | "IBC", Some r -> begin
      match split with
      | [ c; root; dt; count ] ->
          Ibcast
            {
              comm = int_of c;
              root = int_of root;
              dt = Datatype.of_name dt;
              count = int_of count;
              req = int_of r;
            }
      | _ -> malformed key
    end
  | "IAR", Some r -> begin
      match split with
      | [ c; dt; count; op ] ->
          Iallreduce
            {
              comm = int_of c;
              dt = Datatype.of_name dt;
              count = int_of count;
              op = Op.of_name op;
              req = int_of r;
            }
      | _ -> malformed key
    end
  | "BC", None -> begin
      match split with
      | [ c; root; dt; count ] ->
          Bcast { comm = int_of c; root = int_of root; dt = Datatype.of_name dt; count = int_of count }
      | _ -> malformed key
    end
  | "RD", None -> begin
      match split with
      | [ c; root; dt; count; op ] ->
          Reduce
            {
              comm = int_of c;
              root = int_of root;
              dt = Datatype.of_name dt;
              count = int_of count;
              op = Op.of_name op;
            }
      | _ -> malformed key
    end
  | "AR", None -> begin
      match split with
      | [ c; dt; count; op ] ->
          Allreduce
            { comm = int_of c; dt = Datatype.of_name dt; count = int_of count; op = Op.of_name op }
      | _ -> malformed key
    end
  | ("SN" | "EX" | "RS"), None -> begin
      match split with
      | [ c; dt; count; op ] ->
          let comm = int_of c and dt = Datatype.of_name dt and count = int_of count in
          let op = Op.of_name op in
          if prefix = "SN" then Scan { comm; dt; count; op }
          else if prefix = "EX" then Exscan { comm; dt; count; op }
          else Reduce_scatter { comm; dt; count; op }
      | _ -> malformed key
    end
  | "A2A", None -> begin
      match split with
      | [ c; dt; count ] ->
          Alltoall { comm = int_of c; dt = Datatype.of_name dt; count = int_of count }
      | _ -> malformed key
    end
  | "A2AV", None -> begin
      match split with
      | c :: dt :: counts when counts <> [] ->
          Alltoallv
            {
              comm = int_of c;
              dt = Datatype.of_name dt;
              send_counts = Array.of_list (List.map int_of counts);
            }
      | _ -> malformed key
    end
  | "AG", None -> begin
      match split with
      | [ c; dt; count ] ->
          Allgather { comm = int_of c; dt = Datatype.of_name dt; count = int_of count }
      | _ -> malformed key
    end
  | "G", None -> begin
      match split with
      | [ c; root; dt; count ] ->
          Gather { comm = int_of c; root = int_of root; dt = Datatype.of_name dt; count = int_of count }
      | _ -> malformed key
    end
  | "SC", None -> begin
      match split with
      | [ c; root; dt; count ] ->
          Scatter
            { comm = int_of c; root = int_of root; dt = Datatype.of_name dt; count = int_of count }
      | _ -> malformed key
    end
  | "CS", None -> begin
      match split with
      | [ c; color; k; n ] ->
          Comm_split { comm = int_of c; color = int_of color; key = int_of k; newcomm = int_of n }
      | _ -> malformed key
    end
  | "CD", None -> begin
      match split with
      | [ c; n ] -> Comm_dup { comm = int_of c; newcomm = int_of n }
      | _ -> malformed key
    end
  | "CF", None -> Comm_free { comm = int_of args }
  | "FO", None -> begin
      match split with
      | [ c; f ] -> File_open { comm = int_of c; file = int_of f }
      | _ -> malformed key
    end
  | "FC", None -> File_close { file = int_of args }
  | ("FW" | "FR" | "FWI" | "FRI"), None -> begin
      match split with
      | [ f; dt; count ] ->
          let file = int_of f and dt = Datatype.of_name dt and count = int_of count in
          if prefix = "FW" then File_write_all { file; dt; count }
          else if prefix = "FR" then File_read_all { file; dt; count }
          else if prefix = "FWI" then File_write_at { file; dt; count }
          else File_read_at { file; dt; count }
      | _ -> malformed key
    end
  | "CP", None -> Compute (int_of args)
  | _ -> malformed key

(* out-of-range datatype/op names raise Invalid_argument inside the
   parser; normalize everything to Failure per the interface *)
let of_key key = try of_key_impl key with Invalid_argument _ -> malformed key

let is_compute = function Compute _ -> true | _ -> false

let name = function
  | Send _ -> "MPI_Send"
  | Recv _ -> "MPI_Recv"
  | Isend _ -> "MPI_Isend"
  | Irecv _ -> "MPI_Irecv"
  | Wait _ -> "MPI_Wait"
  | Waitall _ -> "MPI_Waitall"
  | Sendrecv _ -> "MPI_Sendrecv"
  | Barrier _ -> "MPI_Barrier"
  | Bcast _ -> "MPI_Bcast"
  | Reduce _ -> "MPI_Reduce"
  | Allreduce _ -> "MPI_Allreduce"
  | Alltoall _ -> "MPI_Alltoall"
  | Alltoallv _ -> "MPI_Alltoallv"
  | Allgather _ -> "MPI_Allgather"
  | Gather _ -> "MPI_Gather"
  | Scatter _ -> "MPI_Scatter"
  | Scan _ -> "MPI_Scan"
  | Exscan _ -> "MPI_Exscan"
  | Reduce_scatter _ -> "MPI_Reduce_scatter"
  | Ibarrier _ -> "MPI_Ibarrier"
  | Ibcast _ -> "MPI_Ibcast"
  | Iallreduce _ -> "MPI_Iallreduce"
  | Comm_split _ -> "MPI_Comm_split"
  | Comm_dup _ -> "MPI_Comm_dup"
  | Comm_free _ -> "MPI_Comm_free"
  | File_open _ -> "MPI_File_open"
  | File_close _ -> "MPI_File_close"
  | File_write_all _ -> "MPI_File_write_all"
  | File_read_all _ -> "MPI_File_read_all"
  | File_write_at _ -> "MPI_File_write_at"
  | File_read_at _ -> "MPI_File_read_at"
  | Compute _ -> "MPI_Compute"

let payload_bytes = function
  | Send p | Recv p | Isend (p, _) | Irecv (p, _) -> Datatype.bytes p.dt ~count:p.count
  | Sendrecv { send; recv } ->
      Datatype.bytes send.dt ~count:send.count + Datatype.bytes recv.dt ~count:recv.count
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
  | File_write_all { dt; count; _ }
  | File_read_all { dt; count; _ }
  | File_write_at { dt; count; _ }
  | File_read_at { dt; count; _ } ->
      Datatype.bytes dt ~count
  | Ibcast { dt; count; _ } | Iallreduce { dt; count; _ } -> Datatype.bytes dt ~count
  | Wait _ | Waitall _ | Barrier _ | Ibarrier _ | Comm_split _ | Comm_dup _ | Comm_free _
  | File_open _ | File_close _ | Compute _ ->
      0

let map_counts f ev =
  let p2p p = { p with count = f p.dt p.count } in
  match ev with
  | Send p -> Send (p2p p)
  | Recv p -> Recv (p2p p)
  | Isend (p, req) -> Isend (p2p p, req)
  | Irecv (p, req) -> Irecv (p2p p, req)
  | Sendrecv { send; recv } ->
      let send = p2p send in
      Sendrecv { send; recv = p2p recv }
  | Bcast b -> Bcast { b with count = f b.dt b.count }
  | Reduce r -> Reduce { r with count = f r.dt r.count }
  | Allreduce r -> Allreduce { r with count = f r.dt r.count }
  | Alltoall a -> Alltoall { a with count = f a.dt a.count }
  | Alltoallv a -> Alltoallv { a with send_counts = Array.map (f a.dt) a.send_counts }
  | Allgather a -> Allgather { a with count = f a.dt a.count }
  | Gather g -> Gather { g with count = f g.dt g.count }
  | Scatter s -> Scatter { s with count = f s.dt s.count }
  | Scan s -> Scan { s with count = f s.dt s.count }
  | Exscan s -> Exscan { s with count = f s.dt s.count }
  | Reduce_scatter s -> Reduce_scatter { s with count = f s.dt s.count }
  | Ibcast b -> Ibcast { b with count = f b.dt b.count }
  | Iallreduce r -> Iallreduce { r with count = f r.dt r.count }
  | File_write_all w -> File_write_all { w with count = f w.dt w.count }
  | File_read_all r -> File_read_all { r with count = f r.dt r.count }
  | File_write_at w -> File_write_at { w with count = f w.dt w.count }
  | File_read_at r -> File_read_at { r with count = f r.dt r.count }
  | Wait _ | Waitall _ | Barrier _ | Ibarrier _ | Comm_split _ | Comm_dup _ | Comm_free _
  | File_open _ | File_close _ | Compute _ ->
      ev

let map_peers f ev =
  let p2p p = { p with rel_peer = f p.rel_peer } in
  match ev with
  | Send p -> Send (p2p p)
  | Recv p -> Recv (p2p p)
  | Isend (p, req) -> Isend (p2p p, req)
  | Irecv (p, req) -> Irecv (p2p p, req)
  | Sendrecv { send; recv } ->
      let send = p2p send in
      Sendrecv { send; recv = p2p recv }
  | _ -> ev

let iter_slots ~req:on_req ~comm:on_comm ~file:on_file ev =
  match ev with
  | Isend (_, req) | Irecv (_, req) | Wait req -> on_req req
  | Waitall reqs -> List.iter on_req reqs
  | Barrier { comm }
  | Bcast { comm; _ }
  | Reduce { comm; _ }
  | Allreduce { comm; _ }
  | Alltoall { comm; _ }
  | Alltoallv { comm; _ }
  | Allgather { comm; _ }
  | Gather { comm; _ }
  | Scatter { comm; _ }
  | Scan { comm; _ }
  | Exscan { comm; _ }
  | Reduce_scatter { comm; _ }
  | Comm_free { comm } ->
      on_comm comm
  | Ibarrier { comm; req } | Ibcast { comm; req; _ } | Iallreduce { comm; req; _ } ->
      on_comm comm;
      on_req req
  | Comm_split { comm; newcomm; _ } | Comm_dup { comm; newcomm } ->
      on_comm comm;
      on_comm newcomm
  | File_open { comm; file } ->
      on_comm comm;
      on_file file
  | File_close { file }
  | File_write_all { file; _ }
  | File_read_all { file; _ }
  | File_write_at { file; _ }
  | File_read_at { file; _ } ->
      on_file file
  | Send _ | Recv _ | Sendrecv _ | Compute _ -> ()

let is_p2p = function
  | Send _ | Recv _ | Isend _ | Irecv _ | Sendrecv _ -> true
  | _ -> false

let serialized_bytes t =
  (* key text + a 4-byte global id in the exported table *)
  String.length (to_key t) + 4

let pp ppf t = Format.pp_print_string ppf (to_key t)

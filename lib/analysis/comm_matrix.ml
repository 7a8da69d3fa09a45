module Event = Siesta_trace.Event
module Call = Siesta_mpi.Call

type t = {
  nranks : int;
  msgs : int array;  (* row-major P x P *)
  vols : int array;
}

let idx t src dst = (src * t.nranks) + dst

let of_streams ~nranks streams =
  if Array.length streams <> nranks then invalid_arg "Comm_matrix.of_streams: stream count";
  let t = { nranks; msgs = Array.make (nranks * nranks) 0; vols = Array.make (nranks * nranks) 0 } in
  Array.iteri
    (fun rank evs ->
      Array.iter
        (fun ev ->
          let record rel bytes =
            if rel <> Call.any_source then begin
              let dst = (rank + rel) mod nranks in
              let i = idx t rank dst in
              t.msgs.(i) <- t.msgs.(i) + 1;
              t.vols.(i) <- t.vols.(i) + bytes
            end
          in
          match (ev : Event.t) with
          | Event.Send p | Event.Isend (p, _) ->
              record p.Event.rel_peer (Event.payload_bytes ev)
          | Event.Sendrecv { send; _ } ->
              record send.Event.rel_peer
                (Siesta_mpi.Datatype.bytes send.Event.dt ~count:send.Event.count)
          | _ -> ())
        evs)
    streams;
  t

let nranks t = t.nranks
let messages t ~src ~dst = t.msgs.(idx t src dst)
let bytes t ~src ~dst = t.vols.(idx t src dst)
let total_messages t = Array.fold_left ( + ) 0 t.msgs
let total_bytes t = Array.fold_left ( + ) 0 t.vols

let edges t =
  let out = ref [] in
  for src = t.nranks - 1 downto 0 do
    for dst = t.nranks - 1 downto 0 do
      let i = idx t src dst in
      if t.msgs.(i) > 0 then out := (src, dst, t.msgs.(i), t.vols.(i)) :: !out
    done
  done;
  !out

let offsets t =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (src, dst, m, _) ->
      let off = (dst - src + t.nranks) mod t.nranks in
      Hashtbl.replace acc off (m + Option.value ~default:0 (Hashtbl.find_opt acc off)))
    (edges t);
  Hashtbl.fold (fun off m l -> (off, m) :: l) acc []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let render t =
  let n = min t.nranks 32 in
  let buf = Buffer.create ((n + 2) * (n + 2)) in
  Buffer.add_string buf
    (Printf.sprintf "p2p volume heat map (%d of %d ranks; digit = log10 bytes)\n" n t.nranks);
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let v = t.vols.(idx t src dst) in
      Buffer.add_char buf
        (if v = 0 then '.'
         else Char.chr (Char.code '0' + min 9 (int_of_float (log10 (float_of_int v)))))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

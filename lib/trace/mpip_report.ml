type function_stats = {
  name : string;
  calls : int;
  total_bytes : int;
  min_bytes : int;
  max_bytes : int;
}

type t = {
  nranks : int;
  total_events : int;
  comm_events : int;
  compute_events : int;
  per_function : function_stats list;
  size_histogram : (int * int) list;
  per_rank_events : int array;
}

let bucket_of bytes =
  let rec go b = if b >= bytes || b >= 1 lsl 30 then b else go (2 * b) in
  go 1

let of_streams ~nranks streams =
  let funcs : (string, function_stats) Hashtbl.t = Hashtbl.create 32 in
  let hist : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let comm = ref 0 and compute = ref 0 in
  let per_rank_events = Array.make nranks 0 in
  for rank = 0 to nranks - 1 do
    let evs = streams.(rank) in
    per_rank_events.(rank) <- Array.length evs;
    Array.iter
      (fun ev ->
        if Event.is_compute ev then incr compute else incr comm;
        let name = Event.name ev in
        let bytes = Event.payload_bytes ev in
        (match Hashtbl.find_opt funcs name with
        | Some s ->
            Hashtbl.replace funcs name
              {
                s with
                calls = s.calls + 1;
                total_bytes = s.total_bytes + bytes;
                min_bytes = min s.min_bytes bytes;
                max_bytes = max s.max_bytes bytes;
              }
        | None ->
            Hashtbl.replace funcs name
              { name; calls = 1; total_bytes = bytes; min_bytes = bytes; max_bytes = bytes });
        if Event.is_p2p ev && bytes > 0 then begin
          let b = bucket_of bytes in
          Hashtbl.replace hist b (1 + Option.value ~default:0 (Hashtbl.find_opt hist b))
        end)
      evs
  done;
  {
    nranks;
    total_events = !comm + !compute;
    comm_events = !comm;
    compute_events = !compute;
    per_function =
      Hashtbl.fold (fun _ s acc -> s :: acc) funcs []
      |> List.sort (fun a b -> compare (b.calls, a.name) (a.calls, b.name));
    size_histogram =
      Hashtbl.fold (fun b n acc -> (b, n) :: acc) hist [] |> List.sort compare;
    per_rank_events;
  }

let render t =
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "@--- Siesta trace summary (mpiP-style) ---------------------------\n";
  p "ranks               : %d\n" t.nranks;
  p "events              : %d (%d communication, %d computation)\n" t.total_events t.comm_events
    t.compute_events;
  let min_r = Array.fold_left min max_int t.per_rank_events in
  let max_r = Array.fold_left max 0 t.per_rank_events in
  p "events per rank     : min %d, max %d\n" min_r max_r;
  p "\n@--- Aggregate calls by function ----------------------------------\n";
  p "%-16s %10s %14s %12s %12s\n" "Function" "Calls" "Total bytes" "Min" "Max";
  List.iter
    (fun s ->
      p "%-16s %10d %14d %12d %12d\n" s.name s.calls s.total_bytes s.min_bytes s.max_bytes)
    t.per_function;
  if t.size_histogram <> [] then begin
    p "\n@--- Point-to-point message size histogram ------------------------\n";
    p "%-14s %10s\n" "<= bytes" "messages";
    List.iter (fun (b, n) -> p "%-14d %10d\n" b n) t.size_histogram
  end;
  Buffer.contents buf

let print t = print_string (render t)

module Merged = Siesta_merge.Merged
module Rank_list = Siesta_merge.Rank_list
module Event = Siesta_trace.Event
module Call = Siesta_mpi.Call
module Datatype = Siesta_mpi.Datatype
module Op = Siesta_mpi.Op
module Block = Siesta_blocks.Block
module Grammar = Siesta_grammar.Grammar

let c_datatype = function
  | Datatype.Byte -> "MPI_BYTE"
  | Datatype.Int -> "MPI_INT"
  | Datatype.Float -> "MPI_FLOAT"
  | Datatype.Double -> "MPI_DOUBLE"

let c_op = function
  | Op.Sum -> "MPI_SUM"
  | Op.Max -> "MPI_MAX"
  | Op.Min -> "MPI_MIN"
  | Op.Prod -> "MPI_PROD"

let peer rel = Printf.sprintf "PEER(%d)" rel

let src_expr rel = if rel = Call.any_source then "MPI_ANY_SOURCE" else peer rel
let tag_expr tag = if tag = Call.any_tag then "MPI_ANY_TAG" else string_of_int tag

(* ------------------------------------------------------------------ *)
(* Computation functions                                                *)

let emit_compute buf cid x err =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "/* computation event cluster %d; search error %.2f%%; x = [%s] */\n" cid (100.0 *. err)
    (String.concat ", " (Array.to_list (Array.map (fun v -> Printf.sprintf "%.0f" v) x)));
  p "static void compute_%d(void) {\n" cid;
  let sum19 = ref 0.0 in
  for j = 0 to 8 do
    sum19 := !sum19 +. x.(j)
  done;
  Array.iteri
    (fun j xj ->
      if xj > 0.0 && j <= 8 then begin
        let b = Block.all.(j) in
        p "  /* block%d: %s */\n" b.Block.id b.Block.description;
        p "  for (long r%d = 0; r%d < %.0fL; r%d++) {\n" j j xj j;
        String.split_on_char '\n' b.Block.c_source |> List.iter (fun line -> p "    %s\n" line);
        p "  }\n"
      end)
    x;
  if x.(9) > 0.0 then begin
    p "  /* block10: %s */\n" Block.all.(9).Block.description;
    p "  for (long r9 = 0; r9 < %.0fL; r9++);\n" x.(9)
  end;
  let rem = x.(10) -. !sum19 in
  if rem > 0.0 then begin
    p "  /* block11 remainder: loop overhead beyond blocks 1-9 */\n";
    p "  for (register long r10 = 0; r10 < %.0fL; r10++) { }\n" rem
  end;
  p "}\n\n"

(* ------------------------------------------------------------------ *)
(* Terminal functions                                                   *)

let emit_terminal buf gid (ev : Event.t) =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let stmt body = p "static void t_%d(void) { %s }\n" gid body in
  match ev with
  | Event.Compute _ -> ()  (* dispatched to compute_<cid> at call sites *)
  | Event.Send { rel_peer; tag; dt; count } ->
      stmt
        (Printf.sprintf "MPI_Send(sbuf, %d, %s, %s, %d, comms[0]);" count (c_datatype dt)
           (peer rel_peer) tag)
  | Event.Recv { rel_peer; tag; dt; count } ->
      stmt
        (Printf.sprintf "MPI_Recv(rbuf, %d, %s, %s, %s, comms[0], MPI_STATUS_IGNORE);" count
           (c_datatype dt) (src_expr rel_peer) (tag_expr tag))
  | Event.Isend ({ rel_peer; tag; dt; count }, slot) ->
      stmt
        (Printf.sprintf "MPI_Isend(sbuf, %d, %s, %s, %d, comms[0], &reqs[%d]);" count
           (c_datatype dt) (peer rel_peer) tag slot)
  | Event.Irecv ({ rel_peer; tag; dt; count }, slot) ->
      stmt
        (Printf.sprintf "MPI_Irecv(rbuf, %d, %s, %s, %s, comms[0], &reqs[%d]);" count
           (c_datatype dt) (src_expr rel_peer) (tag_expr tag) slot)
  | Event.Wait slot -> stmt (Printf.sprintf "MPI_Wait(&reqs[%d], MPI_STATUS_IGNORE);" slot)
  | Event.Waitall slots ->
      let sorted = List.sort compare slots in
      let n = List.length sorted in
      let contiguous =
        match sorted with
        | [] -> true
        | first :: _ ->
            List.for_all2 (fun s i -> s = first + i) sorted (List.init n (fun i -> i))
      in
      if contiguous && n > 0 then
        stmt
          (Printf.sprintf "MPI_Waitall(%d, &reqs[%d], MPI_STATUSES_IGNORE);" n
             (List.hd sorted))
      else begin
        p "static void t_%d(void) {\n" gid;
        List.iter (fun s -> p "  MPI_Wait(&reqs[%d], MPI_STATUS_IGNORE);\n" s) slots;
        p "}\n"
      end
  | Event.Sendrecv { send; recv } ->
      stmt
        (Printf.sprintf
           "MPI_Sendrecv(sbuf, %d, %s, %s, %d, rbuf, %d, %s, %s, %s, comms[0], \
            MPI_STATUS_IGNORE);"
           send.count (c_datatype send.dt) (peer send.rel_peer) send.tag recv.count
           (c_datatype recv.dt) (src_expr recv.rel_peer) (tag_expr recv.tag))
  | Event.Barrier { comm } -> stmt (Printf.sprintf "MPI_Barrier(comms[%d]);" comm)
  | Event.Bcast { comm; root; dt; count } ->
      stmt (Printf.sprintf "MPI_Bcast(sbuf, %d, %s, %d, comms[%d]);" count (c_datatype dt) root comm)
  | Event.Reduce { comm; root; dt; count; op } ->
      stmt
        (Printf.sprintf "MPI_Reduce(sbuf, rbuf, %d, %s, %s, %d, comms[%d]);" count
           (c_datatype dt) (c_op op) root comm)
  | Event.Allreduce { comm; dt; count; op } ->
      stmt
        (Printf.sprintf "MPI_Allreduce(sbuf, rbuf, %d, %s, %s, comms[%d]);" count
           (c_datatype dt) (c_op op) comm)
  | Event.Alltoall { comm; dt; count } ->
      stmt
        (Printf.sprintf "MPI_Alltoall(sbuf, %d, %s, rbuf, %d, %s, comms[%d]);" count
           (c_datatype dt) count (c_datatype dt) comm)
  | Event.Alltoallv { comm; dt; send_counts } ->
      let ints a = String.concat ", " (Array.to_list (Array.map string_of_int a)) in
      let displs =
        let d = Array.make (Array.length send_counts) 0 in
        for i = 1 to Array.length send_counts - 1 do
          d.(i) <- d.(i - 1) + send_counts.(i - 1)
        done;
        d
      in
      p "static const int t_%d_counts[] = { %s };\n" gid (ints send_counts);
      p "static const int t_%d_displs[] = { %s };\n" gid (ints displs);
      p
        "static void t_%d(void) { MPI_Alltoallv(sbuf, (int *)t_%d_counts, (int \
         *)t_%d_displs, %s, rbuf, (int *)t_%d_counts, (int *)t_%d_displs, %s, comms[%d]); \
         }\n"
        gid gid gid (c_datatype dt) gid gid (c_datatype dt) comm
  | Event.Allgather { comm; dt; count } ->
      stmt
        (Printf.sprintf "MPI_Allgather(sbuf, %d, %s, rbuf, %d, %s, comms[%d]);" count
           (c_datatype dt) count (c_datatype dt) comm)
  | Event.Gather { comm; root; dt; count } ->
      stmt
        (Printf.sprintf "MPI_Gather(sbuf, %d, %s, rbuf, %d, %s, %d, comms[%d]);" count
           (c_datatype dt) count (c_datatype dt) root comm)
  | Event.Scatter { comm; root; dt; count } ->
      stmt
        (Printf.sprintf "MPI_Scatter(sbuf, %d, %s, rbuf, %d, %s, %d, comms[%d]);" count
           (c_datatype dt) count (c_datatype dt) root comm)
  | Event.Scan { comm; dt; count; op } ->
      stmt
        (Printf.sprintf "MPI_Scan(sbuf, rbuf, %d, %s, %s, comms[%d]);" count (c_datatype dt)
           (c_op op) comm)
  | Event.Exscan { comm; dt; count; op } ->
      stmt
        (Printf.sprintf "MPI_Exscan(sbuf, rbuf, %d, %s, %s, comms[%d]);" count (c_datatype dt)
           (c_op op) comm)
  | Event.Reduce_scatter { comm; dt; count; op } ->
      stmt
        (Printf.sprintf "MPI_Reduce_scatter_block(sbuf, rbuf, %d, %s, %s, comms[%d]);" count
           (c_datatype dt) (c_op op) comm)
  | Event.Ibarrier { comm; req } ->
      stmt (Printf.sprintf "MPI_Ibarrier(comms[%d], &reqs[%d]);" comm req)
  | Event.Ibcast { comm; root; dt; count; req } ->
      stmt
        (Printf.sprintf "MPI_Ibcast(sbuf, %d, %s, %d, comms[%d], &reqs[%d]);" count
           (c_datatype dt) root comm req)
  | Event.Iallreduce { comm; dt; count; op; req } ->
      stmt
        (Printf.sprintf "MPI_Iallreduce(sbuf, rbuf, %d, %s, %s, comms[%d], &reqs[%d]);" count
           (c_datatype dt) (c_op op) comm req)
  | Event.Comm_split { comm; color; key; newcomm } ->
      stmt (Printf.sprintf "MPI_Comm_split(comms[%d], %d, %d, &comms[%d]);" comm color key newcomm)
  | Event.Comm_dup { comm; newcomm } ->
      stmt (Printf.sprintf "MPI_Comm_dup(comms[%d], &comms[%d]);" comm newcomm)
  | Event.Comm_free { comm } -> stmt (Printf.sprintf "MPI_Comm_free(&comms[%d]);" comm)
  | Event.File_open { comm; file } ->
      stmt
        (Printf.sprintf
           "MPI_File_open(comms[%d], \"siesta_proxy_%d.dat\", MPI_MODE_CREATE |             MPI_MODE_RDWR, MPI_INFO_NULL, &files[%d]);"
           comm file file)
  | Event.File_close { file } -> stmt (Printf.sprintf "MPI_File_close(&files[%d]);" file)
  | Event.File_write_all { file; dt; count } ->
      stmt
        (Printf.sprintf
           "MPI_File_write_all(files[%d], sbuf, %d, %s, MPI_STATUS_IGNORE);" file count
           (c_datatype dt))
  | Event.File_read_all { file; dt; count } ->
      stmt
        (Printf.sprintf "MPI_File_read_all(files[%d], rbuf, %d, %s, MPI_STATUS_IGNORE);" file
           count (c_datatype dt))
  | Event.File_write_at { file; dt; count } ->
      stmt
        (Printf.sprintf
           "MPI_File_write_at(files[%d], (MPI_Offset)rank * %d, sbuf, %d, %s,             MPI_STATUS_IGNORE);"
           file
           (count * Datatype.size dt)
           count (c_datatype dt))
  | Event.File_read_at { file; dt; count } ->
      stmt
        (Printf.sprintf
           "MPI_File_read_at(files[%d], (MPI_Offset)rank * %d, rbuf, %d, %s,             MPI_STATUS_IGNORE);"
           file
           (count * Datatype.size dt)
           count (c_datatype dt))

(* ------------------------------------------------------------------ *)
(* Rank-list conditions                                                 *)

type explicit_sets = { mutable sets : (string * int list) list; mutable next : int }

let condition ~nranks ~explicits ranks =
  match Rank_list.shape ~nranks ranks with
  | Rank_list.All _ -> "1"
  | Rank_list.Range (lo, hi) ->
      if lo = hi then Printf.sprintf "rank == %d" lo
      else Printf.sprintf "rank >= %d && rank <= %d" lo hi
  | Rank_list.Strided (lo, hi, s) ->
      Printf.sprintf "rank >= %d && rank <= %d && (rank - %d) %% %d == 0" lo hi lo s
  | Rank_list.Explicit members ->
      let name = Printf.sprintf "rl_%d" explicits.next in
      explicits.next <- explicits.next + 1;
      explicits.sets <- (name, members) :: explicits.sets;
      Printf.sprintf "in_set(%s, %d)" name (List.length members)

(* ------------------------------------------------------------------ *)

let symbol_call terminals sym =
  match sym with
  | Grammar.T gid -> begin
      match terminals.(gid) with
      | Event.Compute cid -> Printf.sprintf "compute_%d();" cid
      | _ -> Printf.sprintf "t_%d();" gid
    end
  | Grammar.N rid -> Printf.sprintf "rule_%d();" rid

let emit_entry buf ~indent terminals (e : Grammar.entry) =
  let pad = String.make indent ' ' in
  let call = symbol_call terminals e.Grammar.sym in
  if e.Grammar.reps = 1 then Buffer.add_string buf (Printf.sprintf "%s%s\n" pad call)
  else
    Buffer.add_string buf
      (Printf.sprintf "%sfor (long k = 0; k < %dL; k++) { %s }\n" pad e.Grammar.reps call)

let generate (ir : Proxy_ir.t) =
  Siesta_obs.Span.with_ ~cat:"pipeline" "codegen" @@ fun () ->
  let merged = ir.Proxy_ir.merged in
  let terminals = merged.Merged.terminals in
  let nranks = merged.Merged.nranks in
  let buf = Buffer.create 16384 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let max_bytes =
    Array.fold_left
      (fun acc ev ->
        max acc
          (match ev with
          | Event.Send q | Event.Recv q | Event.Isend (q, _) | Event.Irecv (q, _) ->
              Datatype.bytes q.Event.dt ~count:q.Event.count
          | Event.Sendrecv { send; recv } ->
              max
                (Datatype.bytes send.Event.dt ~count:send.Event.count)
                (Datatype.bytes recv.Event.dt ~count:recv.Event.count)
          | Event.Alltoall { dt; count; _ }
          | Event.Allgather { dt; count; _ }
          | Event.Gather { dt; count; _ }
          | Event.Scatter { dt; count; _ }
          | Event.Bcast { dt; count; _ }
          | Event.Reduce { dt; count; _ }
          | Event.Allreduce { dt; count; _ }
          | Event.Scan { dt; count; _ }
          | Event.Exscan { dt; count; _ }
          | Event.Reduce_scatter { dt; count; _ } ->
              Datatype.bytes dt ~count * nranks
          | Event.Alltoallv { dt; send_counts; _ } ->
              Datatype.bytes dt ~count:(Array.fold_left ( + ) 0 send_counts)
          | Event.File_write_all { dt; count; _ }
          | Event.File_read_all { dt; count; _ }
          | Event.File_write_at { dt; count; _ }
          | Event.File_read_at { dt; count; _ } ->
              Datatype.bytes dt ~count
          | Event.Ibcast { dt; count; _ } | Event.Iallreduce { dt; count; _ } ->
              Datatype.bytes dt ~count * nranks
          | _ -> 0))
      64 terminals
  in
  p "/*\n";
  p " * Synthetic proxy application generated by Siesta.\n";
  p " *   generation platform : %s\n" ir.Proxy_ir.generated_on;
  p " *   scaling factor      : %.0f\n" (Shrink.factor ir.Proxy_ir.shrink);
  p " *   ranks               : %d (run with exactly this many processes)\n" nranks;
  p " *   terminals/rules     : %d / %d\n" (Array.length terminals)
    (Array.length merged.Merged.rules);
  p " * The program performs no meaningful computation; it reproduces the\n";
  p " * communication pattern of the traced program losslessly and mimics\n";
  p " * its computation performance counters.\n";
  p " */\n";
  p "#include <mpi.h>\n#include <stdio.h>\n#include <stdlib.h>\n\n";
  p "#define L1_CACHE_SIZE 32768\n#define CACHELINE 64\n";
  p "#define PEER(d) ((rank + (d)) %% size)\n\n";
  p "static int rank, size;\n";
  let reqs, comms, files = Proxy_ir.slot_counts ir in
  p "static MPI_Request reqs[%d];\n" (max 1 reqs);
  p "static MPI_Comm comms[%d];\n" comms;
  if files > 0 then p "static MPI_File files[%d];\n" files;
  p "static char *sbuf, *rbuf;\n";
  p "static char a[4 * L1_CACHE_SIZE];\n";
  p "static long i0, i1, i2 = 3, i3 = 5, i4 = 7, i5 = 11, i6 = 13, j;\n";
  p "static double d1 = 1.0, d2 = 1.000001, d3 = 0.999999, d4 = 1.000002, d5 = 0.999998, d6 \
     = 1.000003;\n\n";
  p "static int in_set(const int *s, int n) {\n";
  p "  int lo = 0, hi = n - 1;\n";
  p "  while (lo <= hi) {\n";
  p "    int mid = (lo + hi) / 2;\n";
  p "    if (s[mid] == rank) return 1;\n";
  p "    if (s[mid] < rank) lo = mid + 1; else hi = mid - 1;\n";
  p "  }\n  return 0;\n}\n\n";
  (* computation clusters used anywhere *)
  let used_clusters = Hashtbl.create 16 in
  Array.iter
    (fun ev -> match ev with Event.Compute cid -> Hashtbl.replace used_clusters cid () | _ -> ())
    terminals;
  Hashtbl.fold (fun cid () acc -> cid :: acc) used_clusters []
  |> List.sort compare
  |> List.iter (fun cid ->
         emit_compute buf cid ir.Proxy_ir.combos.(cid) ir.Proxy_ir.combo_errors.(cid));
  (* terminals *)
  Array.iteri (fun gid ev -> emit_terminal buf gid ev) terminals;
  p "\n";
  (* rules: emit prototypes first (rules only reference lower ids, but be safe) *)
  Array.iteri (fun rid _ -> p "static void rule_%d(void);\n" rid) merged.Merged.rules;
  p "\n";
  Array.iteri
    (fun rid body ->
      p "static void rule_%d(void) {\n" rid;
      List.iter (fun e -> emit_entry buf ~indent:2 terminals e) body;
      p "}\n\n")
    merged.Merged.rules;
  (* main: build body first so explicit rank sets can be declared above it *)
  let explicits = { sets = []; next = 0 } in
  let main_buf = Buffer.create 4096 in
  let pm fmt = Printf.ksprintf (Buffer.add_string main_buf) fmt in
  Array.iteri
    (fun ci entries ->
      let cranks = merged.Merged.main_ranks.(ci) in
      pm "  /* main rule for rank cluster %d: %s */\n" ci
        (Format.asprintf "%a" Rank_list.pp cranks);
      let ccond = condition ~nranks ~explicits cranks in
      pm "  if (%s) {\n" ccond;
      (* group consecutive entries sharing a rank list under one branch *)
      let rec groups acc current current_ranks = function
        | [] -> List.rev (if current = [] then acc else (current_ranks, List.rev current) :: acc)
        | (e : Merged.mentry) :: rest ->
            if current <> [] && Rank_list.equal e.Merged.ranks current_ranks then
              groups acc (e :: current) current_ranks rest
            else begin
              let acc = if current = [] then acc else (current_ranks, List.rev current) :: acc in
              groups acc [ e ] e.Merged.ranks rest
            end
      in
      let gs = groups [] [] (Rank_list.of_list []) entries in
      List.iter
        (fun (ranks, es) ->
          let inner =
            if Rank_list.equal ranks cranks then "1" else condition ~nranks ~explicits ranks
          in
          if inner = "1" then
            List.iter
              (fun (e : Merged.mentry) ->
                emit_entry main_buf ~indent:4 terminals
                  { Grammar.sym = e.Merged.sym; reps = e.Merged.reps })
              es
          else begin
            pm "    if (%s) {\n" inner;
            List.iter
              (fun (e : Merged.mentry) ->
                emit_entry main_buf ~indent:6 terminals
                  { Grammar.sym = e.Merged.sym; reps = e.Merged.reps })
              es;
            pm "    }\n"
          end)
        gs;
      pm "  }\n")
    merged.Merged.mains;
  (* explicit rank sets *)
  List.iter
    (fun (name, members) ->
      p "static const int %s[] = { %s };\n" name
        (String.concat ", " (List.map string_of_int members)))
    (List.rev explicits.sets);
  p "\nint main(int argc, char **argv) {\n";
  p "  MPI_Init(&argc, &argv);\n";
  p "  MPI_Comm_rank(MPI_COMM_WORLD, &rank);\n";
  p "  MPI_Comm_size(MPI_COMM_WORLD, &size);\n";
  p "  if (size != %d) {\n" nranks;
  p "    if (rank == 0) fprintf(stderr, \"this proxy reproduces a %d-rank execution\\n\");\n"
    nranks;
  p "    MPI_Abort(MPI_COMM_WORLD, 1);\n  }\n";
  p "  comms[0] = MPI_COMM_WORLD;\n";
  p "  sbuf = malloc(%d);\n  rbuf = malloc(%d);\n" max_bytes max_bytes;
  p "  srand(20240521);\n";
  p "  double t0 = MPI_Wtime();\n";
  Buffer.add_buffer buf main_buf;
  p "  double t1 = MPI_Wtime();\n";
  p "  if (rank == 0) printf(\"proxy elapsed: %%.6f s\\n\", t1 - t0);\n";
  p "  free(sbuf);\n  free(rbuf);\n";
  p "  MPI_Finalize();\n";
  p "  return 0;\n}\n";
  Buffer.contents buf

let write_file ir ~path =
  let code = generate ir in
  if Siesta_obs.Metrics.enabled () then begin
    Siesta_obs.Metrics.incr (Siesta_obs.Metrics.counter "codegen.files") 1;
    Siesta_obs.Metrics.incr (Siesta_obs.Metrics.counter "codegen.bytes") (String.length code)
  end;
  let oc = open_out path in
  output_string oc code;
  close_out oc

let makefile ir ~name =
  let nranks = ir.Proxy_ir.merged.Merged.nranks in
  String.concat "\n"
    [
      "MPICC ?= mpicc";
      "MPIRUN ?= mpirun";
      Printf.sprintf "NP ?= %d" nranks;
      "CFLAGS ?= -O2";
      "";
      Printf.sprintf "%s: %s.c" name name;
      Printf.sprintf "\t$(MPICC) $(CFLAGS) -o %s %s.c" name name;
      "";
      Printf.sprintf "run: %s" name;
      Printf.sprintf "\t$(MPIRUN) -np $(NP) ./%s" name;
      "";
      "clean:";
      Printf.sprintf "\trm -f %s siesta_proxy_*.dat" name;
      "";
      ".PHONY: run clean";
      "";
    ]

let write_bundle ir ~dir ~name =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write_file ir ~path:(Filename.concat dir (name ^ ".c"));
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  write (Filename.concat dir "Makefile") (makefile ir ~name);
  write
    (Filename.concat dir "README")
    (Printf.sprintf
       "Synthetic proxy application generated by Siesta.\n\n\
        Build:  make            (set MPICC for a non-default compiler)\n\
        Run:    make run        (exactly %d ranks; NP is preset)\n\n\
        The program reproduces the traced program's communication pattern\n\
        losslessly and mimics its computation performance counters; it\n\
        computes nothing meaningful.  Generated on platform %s with a\n\
        scaling factor of %.0f.\n"
       ir.Proxy_ir.merged.Merged.nranks ir.Proxy_ir.generated_on
       (Shrink.factor ir.Proxy_ir.shrink))

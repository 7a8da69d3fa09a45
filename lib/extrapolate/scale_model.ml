module Event = Siesta_trace.Event
module Trace_io = Siesta_trace.Trace_io
module Counters = Siesta_perf.Counters
module Matrix = Siesta_numerics.Matrix
module Lsq = Siesta_numerics.Lsq
module Comm_matrix = Siesta_analysis.Comm_matrix
module Topology = Siesta_analysis.Topology

exception Unsupported of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* ------------------------------------------------------------------ *)
(* Boundary classes on a 2-D grid                                       *)

type cls = { x0 : bool; xn : bool; y0 : bool; yn : bool }

let class_of ~nx ~ny ~px ~py =
  { x0 = px = 0; xn = px = nx - 1; y0 = py = 0; yn = py = ny - 1 }

(* A representative position of the class on an (nx, ny) grid; interior
   coordinates use 1, which is distinct from both boundaries as soon as
   the axis has >= 3 positions. *)
let rep_position ~nx ~ny c =
  let coord ~n ~lo ~hi = if lo then 0 else if hi then n - 1 else 1 in
  (coord ~n:nx ~lo:c.x0 ~hi:c.xn, coord ~n:ny ~lo:c.y0 ~hi:c.yn)

(* ------------------------------------------------------------------ *)
(* Scales                                                               *)

type scale = {
  p : int;
  nx : int;
  ny : int;
  (* one representative stream per class (all members verified equal) *)
  class_streams : (cls * Event.t array) list;
  centroids : (Counters.t * int) array;
}

let detect_grid (t : Trace_io.t) =
  let m = Comm_matrix.of_streams ~nranks:t.Trace_io.nranks t.Trace_io.streams in
  match Topology.classify m with
  | Topology.Grid2d (nx, ny) -> (nx, ny)
  | Topology.Ring -> (t.Trace_io.nranks, 1)
  | other ->
      fail "scale %d: topology %s is not a 2-D grid" t.Trace_io.nranks
        (Topology.to_string other)

(* Computation events are compared up to their cluster id: counter noise
   can split one logical computation into neighbouring clusters for
   different ranks, but the centroids agree within the clustering
   threshold, so any member's id is a faithful representative. *)
let canonical_event (ev : Event.t) =
  match ev with Event.Compute _ -> Event.Compute (-1) | other -> other

let scale_of (t : Trace_io.t) =
  let p = t.Trace_io.nranks in
  let nx, ny = detect_grid t in
  if nx * ny <> p then fail "scale %d: detected grid %dx%d does not cover it" p nx ny;
  let by_class = Hashtbl.create 16 in
  Array.iteri
    (fun r stream ->
      let c = class_of ~nx ~ny ~px:(r mod nx) ~py:(r / nx) in
      match Hashtbl.find_opt by_class c with
      | None -> Hashtbl.replace by_class c stream
      | Some rep ->
          if Array.map canonical_event rep <> Array.map canonical_event stream then
            fail "scale %d: ranks of class at (%d,%d) emit differing streams" p (r mod nx)
              (r / nx))
    t.Trace_io.streams;
  {
    p;
    nx;
    ny;
    class_streams = Hashtbl.fold (fun c s acc -> (c, s) :: acc) by_class [];
    centroids = t.Trace_io.centroids;
  }

(* ------------------------------------------------------------------ *)
(* Shape keys: everything about an event except its scale-dependent
   parameters (counts, peers, computation cluster ids).                 *)

let shape_key (ev : Event.t) =
  match ev with
  | Event.Compute _ -> "CP"
  | Event.Alltoallv _ -> fail "MPI_Alltoallv carries a per-peer vector; not scale-regular"
  | Event.Comm_split _ | Event.Comm_dup _ | Event.Comm_free _ ->
      fail "dynamic communicators are not supported by the scale model"
  | _ -> Event.to_key (Event.map_peers (fun _ -> 0) (Event.map_counts (fun _ _ -> 0) ev))

(* ------------------------------------------------------------------ *)
(* Parameter models                                                     *)

(* count ~ exp(a + b ln nx + c ln ny), fitted over the scales *)
type count_model = Constant of int | Power of float array (* [a; b; c] *)

let fit_count samples =
  (* samples: (nx, ny, value) *)
  match samples with
  | [] -> Constant 0
  | (_, _, v0) :: rest when List.for_all (fun (_, _, v) -> v = v0) rest -> Constant v0
  | _ ->
      if List.exists (fun (_, _, v) -> v <= 0) samples then
        fail "a varying count touches zero; cannot fit a power law";
      let a =
        Matrix.of_arrays
          (Array.of_list
             (List.map
                (fun (nx, ny, _) ->
                  [| 1.0; log (float_of_int nx); log (float_of_int ny) |])
                samples))
      in
      let b = Array.of_list (List.map (fun (_, _, v) -> log (float_of_int v)) samples) in
      Power (Lsq.solve a b)

let eval_count model ~nx ~ny =
  match model with
  | Constant v -> v
  | Power coef ->
      let v =
        exp (coef.(0) +. (coef.(1) *. log (float_of_int nx)) +. (coef.(2) *. log (float_of_int ny)))
      in
      max 0 (int_of_float (Float.round v))

(* the same model per metric for computation events (floats, may be 0) *)
type metric_model = float array option array (* 6 entries; None = always zero *)

let fit_metrics samples =
  (* samples: (nx, ny, Counters.t) *)
  Array.init 6 (fun i ->
      let vals = List.map (fun (nx, ny, c) -> (nx, ny, (Counters.to_array c).(i))) samples in
      if List.for_all (fun (_, _, v) -> v <= 0.0) vals then None
      else begin
        let a =
          Matrix.of_arrays
            (Array.of_list
               (List.map
                  (fun (nx, ny, _) -> [| 1.0; log (float_of_int nx); log (float_of_int ny) |])
                  vals))
        in
        let b = Array.of_list (List.map (fun (_, _, v) -> log (max 1e-9 v)) vals) in
        Some (Lsq.solve a b)
      end)

let eval_metrics models ~nx ~ny =
  Counters.of_array
    (Array.map
       (function
         | None -> 0.0
         | Some coef ->
             exp
               (coef.(0)
               +. (coef.(1) *. log (float_of_int nx))
               +. (coef.(2) *. log (float_of_int ny))))
       models)

(* point-to-point peers: a constant relative rank, or a grid displacement
   with periodic wrap evaluated at the class's representative position *)
type peer_model = Const_rel of int | Displacement of (int * int)

let rel_of_displacement ~nx ~ny ~px ~py (dx, dy) =
  let p = nx * ny in
  let peer = (((py + dy + ny) mod ny) * nx) + ((px + dx + nx) mod nx) in
  let r = (py * nx) + px in
  (peer - r + p) mod p

let fit_peer ~cls samples =
  (* samples: (scale, observed_rel) *)
  let const_ok =
    match samples with
    | (_, r0) :: rest -> List.for_all (fun (_, r) -> r = r0) rest
    | [] -> true
  in
  let displacement =
    List.concat_map (fun dx -> List.map (fun dy -> (dx, dy)) [ -1; 0; 1 ]) [ -1; 0; 1 ]
    |> List.filter (fun d -> d <> (0, 0))
    |> List.find_opt (fun d ->
           List.for_all
             (fun (s, rel) ->
               let px, py = rep_position ~nx:s.nx ~ny:s.ny cls in
               rel_of_displacement ~nx:s.nx ~ny:s.ny ~px ~py d = rel)
             samples)
  in
  match (displacement, const_ok, samples) with
  | Some d, _, _ -> Displacement d
  | None, true, (_, r0) :: _ -> Const_rel r0
  | None, true, [] -> Const_rel 0
  | None, false, _ -> fail "a peer is neither a fixed offset nor a grid displacement"

let eval_peer model ~nx ~ny ~px ~py =
  match model with
  | Const_rel r -> r
  | Displacement d -> rel_of_displacement ~nx ~ny ~px ~py d

(* ------------------------------------------------------------------ *)
(* The fitted model                                                     *)

(* per class: the template stream with per-event parameter models *)
type event_model = {
  template : Event.t;  (* shape carrier (from the first scale) *)
  counts : count_model array;  (* per count slot *)
  peers : peer_model array;  (* per peer slot *)
  compute : int option;  (* extrapolated cluster id *)
}

type t = {
  square : bool;  (* all fitted scales had nx = ny *)
  fixed_ny : int option;  (* ny constant across fitted scales *)
  grids : (int * int * int) list;  (* observed (p, nx, ny) *)
  class_models : (cls * event_model array) list;
  clusters : metric_model array;  (* extrapolated compute clusters *)
  cluster_members : count_model array;
}

let classes t = List.length t.class_models

(* An event's counts and peers, in the order Event's traversals visit
   them; [rebuild] hands them back in the same order. *)
let collect map ev =
  let acc = ref [] in
  ignore (map (fun v -> acc := v :: !acc; v) ev : Event.t);
  Array.of_list (List.rev !acc)

let counts_of = collect (fun f -> Event.map_counts (fun _ c -> f c))
let peers_of = collect Event.map_peers

let rebuild (ev : Event.t) ~counts ~peers ~compute =
  let next values =
    let i = ref (-1) in
    fun _ -> incr i; values.(!i)
  in
  match ev with
  | Event.Compute _ -> Event.Compute (Option.get compute)
  | _ ->
      let count = next counts in
      Event.map_peers (next peers) (Event.map_counts (fun _ c -> count c) ev)

let fit traces =
  if List.length traces < 3 then invalid_arg "Scale_model.fit: need at least three scales";
  let scales = List.map scale_of traces in
  let scales = List.sort (fun a b -> compare a.p b.p) scales in
  (match scales with
  | a :: rest ->
      ignore (List.fold_left (fun prev s ->
          if s.p = prev then fail "duplicate scale %d" s.p else s.p) a.p rest)
  | [] -> ());
  let square = List.for_all (fun s -> s.nx = s.ny) scales in
  let fixed_ny =
    match scales with
    | s0 :: rest when List.for_all (fun s -> s.ny = s0.ny) rest -> Some s0.ny
    | _ -> None
  in
  (* classes: every class observed anywhere must be observed at >= 3
     scales so the parameter fits are determined *)
  let all_classes =
    List.concat_map (fun s -> List.map fst s.class_streams) scales |> List.sort_uniq compare
  in
  let clusters_rev = ref [] in
  let members_rev = ref [] in
  let n_clusters = ref 0 in
  let dedupe = Hashtbl.create 32 in
  (* Stable, explicit dedupe key: coefficients via their IEEE-754 bit
     pattern (Codec.float_repr), variant tags spelled out.  Marshal's
     byte image would also have worked, but its layout is an
     implementation detail of the OCaml runtime — this key survives
     compiler upgrades and is greppable in a debugger. *)
  let count_model_repr = function
    | Constant v -> Printf.sprintf "const:%d" v
    | Power coef ->
        "power:"
        ^ String.concat ","
            (Array.to_list (Array.map Siesta_store.Codec.float_repr coef))
  in
  let metric_models_repr models =
    String.concat ";"
      (Array.to_list
         (Array.map
            (function
              | None -> "-"
              | Some coef ->
                  String.concat ","
                    (Array.to_list (Array.map Siesta_store.Codec.float_repr coef)))
            models))
  in
  let intern_cluster metric_models member_model =
    let key = metric_models_repr metric_models ^ "|" ^ count_model_repr member_model in
    match Hashtbl.find_opt dedupe key with
    | Some id -> id
    | None ->
        let id = !n_clusters in
        incr n_clusters;
        clusters_rev := metric_models :: !clusters_rev;
        members_rev := member_model :: !members_rev;
        Hashtbl.replace dedupe key id;
        id
  in
  let class_models =
    List.map
      (fun cls ->
        let occurrences =
          List.filter_map
            (fun s ->
              Option.map (fun stream -> (s, stream)) (List.assoc_opt cls s.class_streams))
            scales
        in
        if List.length occurrences < 3 then
          fail "a boundary class appears at only %d scale(s); trace more scales"
            (List.length occurrences);
        (* structural alignment *)
        let _, stream0 = List.hd occurrences in
        let shapes0 = Array.map shape_key stream0 in
        List.iter
          (fun (_, stream) ->
            if Array.length stream <> Array.length stream0 then
              fail "stream length changes with scale (%d vs %d events): not scale-regular"
                (Array.length stream0) (Array.length stream);
            Array.iteri
              (fun i ev ->
                if shape_key ev <> shapes0.(i) then
                  fail "event %d changes shape across scales (%s vs %s)" i shapes0.(i)
                    (shape_key ev))
              stream)
          occurrences;
        let models =
          Array.mapi
            (fun i template ->
              let counts =
                Array.mapi
                  (fun slot _ ->
                    fit_count
                      (List.map
                         (fun (s, stream) -> (s.nx, s.ny, (counts_of stream.(i)).(slot)))
                         occurrences))
                  (counts_of template)
              in
              let peers =
                Array.mapi
                  (fun slot _ ->
                    fit_peer ~cls
                      (List.map (fun (s, stream) -> (s, (peers_of stream.(i)).(slot))) occurrences))
                  (peers_of template)
              in
              let compute =
                match template with
                | Event.Compute _ ->
                    let samples =
                      List.map
                        (fun (s, stream) ->
                          match stream.(i) with
                          | Event.Compute cid ->
                              let centroid, _ = s.centroids.(cid) in
                              (s.nx, s.ny, centroid)
                          | _ -> assert false)
                        occurrences
                    in
                    let members =
                      fit_count
                        (List.map
                           (fun (s, stream) ->
                             match stream.(i) with
                             | Event.Compute cid -> (s.nx, s.ny, snd s.centroids.(cid))
                             | _ -> assert false)
                           occurrences)
                    in
                    Some (intern_cluster (fit_metrics samples) members)
                | _ -> None
              in
              { template; counts; peers; compute })
            stream0
        in
        (cls, models))
      all_classes
  in
  {
    square;
    fixed_ny;
    grids = List.map (fun s -> (s.p, s.nx, s.ny)) scales;
    class_models;
    clusters = Array.of_list (List.rev !clusters_rev);
    cluster_members = Array.of_list (List.rev !members_rev);
  }

(* near-cubic factorization, as the workloads' own Common.grid2 computes *)
let grid2_local p =
  let rec factors n d acc =
    if n = 1 then acc
    else if d * d > n then n :: acc
    else if n mod d = 0 then factors (n / d) d (d :: acc)
    else factors n (d + 1) acc
  in
  let fs = List.sort (fun a b -> compare b a) (factors p 2 []) in
  let dims = [| 1; 1; 1 |] in
  List.iter
    (fun f ->
      let i = ref 0 in
      for k = 1 to 2 do
        if dims.(k) < dims.(!i) then i := k
      done;
      dims.(!i) <- dims.(!i) * f)
    fs;
  Array.sort compare dims;
  (dims.(2) * dims.(0), dims.(1))

let target_grid t ~nranks =
  (* if every traced scale used the standard near-cubic factorization,
     assume the target does too; otherwise fall back to the square or
     fixed-row patterns the scales exhibit *)
  if List.for_all (fun (p, nx, ny) -> grid2_local p = (nx, ny)) t.grids then
    grid2_local nranks
  else if t.square then begin
    let q = int_of_float (sqrt (float_of_int nranks) +. 0.5) in
    if q * q <> nranks then
      fail "fitted on square grids; target %d is not a perfect square" nranks;
    (q, q)
  end
  else begin
    match t.fixed_ny with
    | Some ny when nranks mod ny = 0 -> (nranks / ny, ny)
    | Some ny -> fail "fitted with ny = %d, which does not divide %d" ny nranks
    | None -> grid2_local nranks
  end

let instantiate t ~nranks =
  let nx, ny = target_grid t ~nranks in
  let streams =
    Array.init nranks (fun r ->
        let px = r mod nx and py = r / nx in
        let cls = class_of ~nx ~ny ~px ~py in
        let models =
          match List.assoc_opt cls t.class_models with
          | Some m -> m
          | None ->
              fail "target grid %dx%d has a boundary class never observed while fitting" nx ny
        in
        Array.map
          (fun m ->
            let counts = Array.map (fun cm -> eval_count cm ~nx ~ny) m.counts in
            let peers = Array.map (fun pm -> eval_peer pm ~nx ~ny ~px ~py) m.peers in
            rebuild m.template ~counts ~peers ~compute:m.compute)
          models)
  in
  let centroids =
    Array.init (Array.length t.clusters) (fun cid ->
        ( eval_metrics t.clusters.(cid) ~nx ~ny,
          max 1 (eval_count t.cluster_members.(cid) ~nx ~ny) ))
  in
  { Trace_io.nranks; streams; centroids }

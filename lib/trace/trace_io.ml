module Counters = Siesta_perf.Counters

type t = {
  nranks : int;
  streams : Event.t array array;
  centroids : (Counters.t * int) array;
}

type packed = {
  p_nranks : int;
  p_defs : Event.t array;
  p_codes : Soa.buf array;
  p_centroids : (Counters.t * int) array;
}

let pack recorder =
  let nranks = Recorder.nranks recorder in
  let table = Recorder.compute_table recorder in
  {
    p_nranks = nranks;
    p_defs = Recorder.event_defs recorder;
    p_codes = Array.init nranks (Recorder.codes recorder);
    p_centroids =
      Array.init (Compute_table.cluster_count table) (fun cid ->
          (Compute_table.centroid table cid, Compute_table.members table cid));
  }

let of_packed p =
  {
    nranks = p.p_nranks;
    streams =
      Array.map
        (fun codes ->
          Array.init (Soa.length codes) (fun i -> p.p_defs.(Soa.unsafe_get codes i)))
        p.p_codes;
    centroids = p.p_centroids;
  }

let of_recorder recorder = of_packed (pack recorder)

let to_packed t =
  let intern = Soa.Intern.create () in
  let p_codes =
    Array.map
      (fun evs ->
        let b = Soa.create ~capacity:(max 16 (Array.length evs)) () in
        Array.iter (fun ev -> Soa.append b (Soa.Intern.intern intern ev)) evs;
        b)
      t.streams
  in
  {
    p_nranks = t.nranks;
    p_defs = Soa.Intern.defs intern;
    p_codes;
    p_centroids = t.centroids;
  }

let compute_table t = Compute_table.restore t.centroids
let packed_compute_table p = Compute_table.restore p.p_centroids
let packed_total_events p = Array.fold_left (fun acc b -> acc + Soa.length b) 0 p.p_codes

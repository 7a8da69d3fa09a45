module Codec = Siesta_store.Codec
module Hash = Siesta_store.Hash

let finish descr = (Hash.content_hash descr, descr)

let trace_key ~workload ~nranks ~iters ~seed ~platform ~impl ~cluster_threshold =
  finish
    (Printf.sprintf "trace|v%d|workload=%s|nranks=%d|iters=%s|seed=%d|platform=%s|impl=%s|ct=%s"
       Codec.schema_version workload nranks
       (match iters with None -> "default" | Some i -> string_of_int i)
       seed platform impl
       (Codec.float_repr cluster_threshold))

let merge_key ~trace_hash =
  finish (Printf.sprintf "merge|v%d|trace=%s" Codec.schema_version trace_hash)

let proxy_key ~trace_hash ~factor ~platform ~impl =
  finish
    (Printf.sprintf "proxy|v%d|trace=%s|factor=%s|platform=%s|impl=%s" Codec.schema_version
       trace_hash (Codec.float_repr factor) platform impl)

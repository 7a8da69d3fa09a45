(* Tests for Siesta_util.Parallel, which names the host's domain count. *)

module Parallel = Siesta_util.Parallel

let test_global_is_recommended () =
  Alcotest.(check int) "size (global ())" (Domain.recommended_domain_count ())
    (Parallel.size (Parallel.global ()))

let suite = [ ("global = recommended count", `Quick, test_global_is_recommended) ]

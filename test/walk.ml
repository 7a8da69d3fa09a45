(* The ids [Merged.iter_rank] visits for one rank, collected into an
   array: what the tests compare with the sequence the rank recorded. *)
let expand_for_rank m rank =
  let out = ref [] in
  Siesta_merge.Merged.iter_rank (fun v -> out := v :: !out) m rank;
  Array.of_list (List.rev !out)

module Grammar = Siesta_grammar.Grammar
module Event = Siesta_trace.Event

type mentry = { sym : Grammar.symbol; reps : int; ranks : Rank_list.t }

type t = {
  nranks : int;
  terminals : Event.t array;
  rules : Grammar.rule array;
  mains : mentry list array;
  main_ranks : Rank_list.t array;
}

let cluster_of_rank t rank =
  let rec find i =
    if i >= Array.length t.main_ranks then raise Not_found
    else if Rank_list.mem t.main_ranks.(i) rank then i
    else find (i + 1)
  in
  find 0

let iter_rank f t rank =
  let cluster = cluster_of_rank t rank in
  let g = { Grammar.main = []; rules = t.rules } in
  List.iter
    (fun { sym; reps; ranks } ->
      if Rank_list.mem ranks rank then Grammar.iter_rule f g [ { Grammar.sym; reps } ])
    t.mains.(cluster)

let serialized_bytes t =
  let terminal_bytes =
    Array.fold_left (fun acc ev -> acc + Event.serialized_bytes ev) 0 t.terminals
  in
  let rule_bytes =
    Array.fold_left (fun acc body -> acc + 8 + (6 * List.length body)) 0 t.rules
  in
  let main_bytes =
    Array.fold_left
      (fun acc entries ->
        List.fold_left (fun acc e -> acc + 6 + Rank_list.serialized_bytes e.ranks) acc entries)
      0 t.mains
  in
  terminal_bytes + rule_bytes + main_bytes

let mentry_equal a b =
  a.sym = b.sym && a.reps = b.reps && Rank_list.equal a.ranks b.ranks

let equal a b =
  a.nranks = b.nranks
  && a.terminals = b.terminals
  && a.rules = b.rules
  && Array.length a.mains = Array.length b.mains
  && Array.for_all2 (List.equal mentry_equal) a.mains b.mains
  && Array.length a.main_ranks = Array.length b.main_ranks
  && Array.for_all2 Rank_list.equal a.main_ranks b.main_ranks

let stats t =
  Printf.sprintf "%d terminals, %d rules, %d main cluster(s), %d main entries, %s"
    (Array.length t.terminals) (Array.length t.rules) (Array.length t.mains)
    (Array.fold_left (fun acc m -> acc + List.length m) 0 t.mains)
    (Siesta_util.Bytes_fmt.to_string (serialized_bytes t))

let validate t =
  if Array.length t.mains <> Array.length t.main_ranks then
    invalid_arg
      (Printf.sprintf "Merged: %d main rules but %d main rank lists" (Array.length t.mains)
         (Array.length t.main_ranks));
  let covered = Array.make t.nranks 0 in
  Array.iter
    (fun rl -> List.iter (fun r ->
         if r < 0 || r >= t.nranks then invalid_arg "Merged: rank out of range";
         covered.(r) <- covered.(r) + 1)
        (Rank_list.to_list rl))
    t.main_ranks;
  Array.iteri
    (fun r c ->
      if c <> 1 then
        invalid_arg (Printf.sprintf "Merged: rank %d covered by %d main rules" r c))
    covered;
  let nrules = Array.length t.rules and nterms = Array.length t.terminals in
  Grammar.validate ~terminals:nterms { Grammar.main = []; rules = t.rules };
  Array.iter
    (List.iter (fun { sym; reps; ranks } ->
         if reps < 1 then invalid_arg "Merged: non-positive repetition";
         if Rank_list.cardinal ranks = 0 then invalid_arg "Merged: empty rank list";
         match sym with
         | Grammar.N i when i < 0 || i >= nrules -> invalid_arg "Merged: rule ref out of range"
         | Grammar.T v when v < 0 || v >= nterms ->
             invalid_arg (Printf.sprintf "Merged: terminal id %d out of range" v)
         | Grammar.N _ | Grammar.T _ -> ()))
    t.mains

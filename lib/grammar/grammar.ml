type symbol = T of int | N of int
type entry = { sym : symbol; reps : int }
type rule = entry list
type t = { main : rule; rules : rule array }

let symbol_code = function T v -> 2 * v | N i -> (2 * i) + 1
let symbol_of_code c = if c land 1 = 0 then T (c lsr 1) else N (c lsr 1)

let check_ref t i =
  if i < 0 || i >= Array.length t.rules then
    invalid_arg (Printf.sprintf "Grammar: rule reference %d out of range" i)

let iter_rule f t body =
  let rec walk = function
    | [] -> ()
    | { sym; reps } :: rest ->
        for _ = 1 to reps do
          match sym with
          | T v -> f v
          | N i ->
              check_ref t i;
              walk t.rules.(i)
        done;
        walk rest
  in
  walk body

let expand_rule t body =
  let out = ref [] in
  iter_rule (fun v -> out := v :: !out) t body;
  Array.of_list (List.rev !out)

let expand t = expand_rule t t.main

let entry_count t =
  List.length t.main + Array.fold_left (fun acc r -> acc + List.length r) 0 t.rules

let rule_count t = Array.length t.rules

let expanded_length t =
  let n = Array.length t.rules in
  let memo = Array.make n (-1) in
  let rec len_of_rule i =
    if memo.(i) >= 0 then memo.(i)
    else begin
      let v = len_of_body t.rules.(i) in
      memo.(i) <- v;
      v
    end
  and len_of_body body =
    List.fold_left
      (fun acc { sym; reps } ->
        acc
        + reps * (match sym with T _ -> 1 | N i -> check_ref t i; len_of_rule i))
      0 body
  in
  len_of_body t.main

(* The one walk over a grammar's rules.  Each rule's body is read once,
   after the rules it references, and every entry is checked on the way:
   a repetition below 1, a rule reference out of range, a terminal id
   outside [0, terminals) (when given), an empty rule or a cycle raises.
   Returns each rule's depth, and the same checking walk for another
   body (the main rule). *)
let checked_depths ?terminals t =
  let n = Array.length t.rules in
  (* 0: not reached yet; -1: on the current path; else the rule's depth *)
  let memo = Array.make n 0 in
  let rec rule_depth i =
    let d = memo.(i) in
    if d > 0 then d
    else if d < 0 then invalid_arg "Grammar: cyclic grammar"
    else begin
      memo.(i) <- -1;
      let d = body_depth 0 t.rules.(i) in
      if d = 0 then invalid_arg "Grammar: empty rule";
      memo.(i) <- d;
      d
    end
  and body_depth acc = function
    | [] -> acc
    | { sym; reps } :: rest ->
        if reps < 1 then invalid_arg "Grammar: non-positive repetition";
        let d =
          match sym with
          | T v ->
              (match terminals with
              | Some nt when v < 0 || v >= nt ->
                  invalid_arg (Printf.sprintf "Grammar: terminal id %d out of range" v)
              | _ -> ());
              1
          | N j ->
              check_ref t j;
              1 + rule_depth j
        in
        body_depth (if d > acc then d else acc) rest
  in
  for i = 0 to n - 1 do
    ignore (rule_depth i)
  done;
  (memo, body_depth 0)

let depth t = fst (checked_depths t)

let serialized_bytes t =
  (6 * entry_count t) + (8 * (rule_count t + 1))

let equal (a : t) (b : t) = a = b

let map_terminals f t =
  let map_body body =
    List.map
      (fun { sym; reps } ->
        match sym with T v -> { sym = T (f v); reps } | N _ -> { sym; reps })
      body
  in
  { main = map_body t.main; rules = Array.map map_body t.rules }

let validate ~terminals t =
  let _, body_depth = checked_depths ~terminals t in
  ignore (body_depth t.main)

let pp ppf t =
  let pp_entry ppf { sym; reps } =
    (match sym with
    | T v -> Format.fprintf ppf "t%d" v
    | N i -> Format.fprintf ppf "R%d" i);
    if reps > 1 then Format.fprintf ppf "^%d" reps
  in
  let pp_body ppf body =
    Format.fprintf ppf "@[<h>%a@]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") pp_entry)
      body
  in
  Format.fprintf ppf "@[<v>S -> %a" pp_body t.main;
  Array.iteri (fun i body -> Format.fprintf ppf "@,R%d -> %a" i pp_body body) t.rules;
  Format.fprintf ppf "@]"

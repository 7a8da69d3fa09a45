type symbol = T of int | N of int
type entry = { sym : symbol; reps : int }
type rule = entry list
type t = { main : rule; rules : rule array }

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

let depth t =
  let n = Array.length t.rules in
  let memo = Array.make n (-1) in
  let visiting = Array.make n false in
  let rec depth_of i =
    if memo.(i) >= 0 then memo.(i)
    else begin
      if visiting.(i) then invalid_arg "Grammar.depth: cyclic grammar";
      visiting.(i) <- true;
      let d =
        List.fold_left
          (fun acc { sym; _ } ->
            match sym with T _ -> max acc 1 | N j -> check_ref t j; max acc (1 + depth_of j))
          0 t.rules.(i)
      in
      visiting.(i) <- false;
      memo.(i) <- d;
      d
    end
  in
  Array.init n depth_of

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

let validate t =
  ignore (depth t);
  List.iter (fun { sym; reps } ->
      if reps < 1 then invalid_arg "Grammar: non-positive repetition";
      match sym with N i -> check_ref t i | T _ -> ())
    t.main;
  Array.iter
    (fun body ->
      if body = [] then invalid_arg "Grammar: empty rule";
      List.iter
        (fun { sym; reps } ->
          if reps < 1 then invalid_arg "Grammar: non-positive repetition";
          match sym with N i -> check_ref t i | T _ -> ())
        body)
    t.rules

let to_dot ?(terminal_label = fun i -> Printf.sprintf "t%d" i) t =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let escape s = String.concat "\\\"" (String.split_on_char '"' s) in
  p "digraph grammar {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  p "  main [label=\"S\", style=bold];\n";
  Array.iteri (fun i _ -> p "  r%d [label=\"R%d\"];\n" i i) t.rules;
  (* terminals used anywhere become leaf nodes *)
  let terminals = Hashtbl.create 32 in
  let note_terms body =
    List.iter (fun { sym; _ } -> match sym with T v -> Hashtbl.replace terminals v () | N _ -> ()) body
  in
  note_terms t.main;
  Array.iter note_terms t.rules;
  Hashtbl.iter
    (fun v () -> p "  t%d [label=\"%s\", shape=ellipse];\n" v (escape (terminal_label v)))
    terminals;
  let edges src body =
    List.iteri
      (fun pos { sym; reps } ->
        let dst = match sym with T v -> Printf.sprintf "t%d" v | N i -> Printf.sprintf "r%d" i in
        let label = if reps = 1 then Printf.sprintf "%d" pos else Printf.sprintf "%d (x%d)" pos reps in
        p "  %s -> %s [label=\"%s\"];\n" src dst label)
      body
  in
  edges "main" t.main;
  Array.iteri (fun i body -> edges (Printf.sprintf "r%d" i) body) t.rules;
  p "}\n";
  Buffer.contents buf

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

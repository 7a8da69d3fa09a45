(* Implementation notes.
   This follows Nevill-Manning & Witten's original doubly-linked-list
   construction: each rule body is a circular list around a guard node, and
   a hash table maps digrams to their (unique) indexed occurrence.  On top
   of the two classic constraints (digram uniqueness, rule utility) we add
   the run-length constraint of Section 2.5.2: adjacent equal symbols are
   merged by summing their repetition counts, and a digram's hash key
   includes both symbols' repetition counts, so only exactly-equal digrams
   unify.  Rule utility under run-length encoding reads: a rule is useful
   if it has >= 2 referencing occurrences, or one occurrence with
   repetition count >= 2.

   Flat store.  Nodes and rules are not OCaml records but fixed-width
   slots in two growable int arrays, so the steady state allocates
   nothing.  A node's symbol is stored as its encoding: [2v] for terminal
   [v], [2 rid + 1] for a reference to the rule with id [rid].  Rule ids
   count up and are never reused, so equal encodings mean equal symbols.
   A guard is the node with [reps = 0]; its rule field names the rule it
   closes, while a reference's rule field names the rule it points to.

   Slot reuse.  Removed nodes and retired rules go on a dead list and
   return to the free list only when the current [push] finishes.
   Within one push the classic algorithm may still read a removed
   node's links (e.g. [enforce_utility] after an expansion), so those
   fields must stay exactly as they were at removal.

   Digram index.  One open-addressing table (linear probing,
   backward-shift deletion, load <= 1/2) stores each key
   (enc a, reps a, enc b, reps b) unboxed next to the indexed node. *)

(* Node slot layout in [t.nodes]. *)
let node_size = 5
let f_sym = 0
let f_reps = 1
let f_prev = 2
let f_next = 3
let f_rule = 4

(* Rule slot layout in [t.rules]; [guard = -1] marks a free slot. *)
let rule_size = 3
let f_guard = 0
let f_refcount = 1
let f_rid = 2

(* Digram slot layout in [t.slots]; [node = -1] marks an empty slot. *)
let slot_size = 5

(* Growable int stack, for the free and dead lists. *)
module Int_stack = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 16 0; len = 0 }

  let push s x =
    if s.len = Array.length s.a then begin
      let a = Array.make (2 * s.len) 0 in
      Array.blit s.a 0 a 0 s.len;
      s.a <- a
    end;
    s.a.(s.len) <- x;
    s.len <- s.len + 1

  let pop s =
    s.len <- s.len - 1;
    s.a.(s.len)
end

type t = {
  mutable nodes : int array;
  mutable node_top : int;  (* slots ever handed out *)
  free_nodes : Int_stack.t;
  dead_nodes : Int_stack.t;
  mutable rules : int array;
  mutable rule_top : int;
  free_rules : Int_stack.t;
  dead_rules : Int_stack.t;
  mutable slots : int array;
  mutable mask : int;  (* digram slot count - 1 *)
  mutable digrams : int;
  mutable next_rid : int;
  rle : bool;
}

(* The main rule S occupies rule slot 0, and its guard node slot 0. *)
let s_rule = 0

let[@inline] sym t n = t.nodes.((n * node_size) + f_sym)
let[@inline] reps t n = t.nodes.((n * node_size) + f_reps)
let[@inline] prev t n = t.nodes.((n * node_size) + f_prev)
let[@inline] next t n = t.nodes.((n * node_size) + f_next)
let[@inline] rule t n = t.nodes.((n * node_size) + f_rule)
let[@inline] set_reps t n v = t.nodes.((n * node_size) + f_reps) <- v
let[@inline] set_prev t n v = t.nodes.((n * node_size) + f_prev) <- v
let[@inline] set_next t n v = t.nodes.((n * node_size) + f_next) <- v
let[@inline] guard t r = t.rules.((r * rule_size) + f_guard)
let[@inline] refcount t r = t.rules.((r * rule_size) + f_refcount)
let[@inline] rid t r = t.rules.((r * rule_size) + f_rid)
let[@inline] set_refcount t r v = t.rules.((r * rule_size) + f_refcount) <- v
let[@inline] is_guard t n = reps t n = 0
let[@inline] is_ref t n = sym t n land 1 = 1
let same_sym t a b = (not (is_guard t a)) && (not (is_guard t b)) && sym t a = sym t b

(* ------------------------------------------------------------------ *)
(* Slot allocation *)

let grown a used width =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (used * width);
  b

let alloc_node t ~sym ~reps ~rule =
  let n =
    if t.free_nodes.len > 0 then Int_stack.pop t.free_nodes
    else begin
      if (t.node_top + 1) * node_size > Array.length t.nodes then
        t.nodes <- grown t.nodes t.node_top node_size;
      t.node_top <- t.node_top + 1;
      t.node_top - 1
    end
  in
  let b = n * node_size in
  t.nodes.(b + f_sym) <- sym;
  t.nodes.(b + f_reps) <- reps;
  t.nodes.(b + f_prev) <- n;
  t.nodes.(b + f_next) <- n;
  t.nodes.(b + f_rule) <- rule;
  n

(* A rule with an empty body: a fresh rule slot closed by a guard. *)
let alloc_rule t ~rid =
  let r =
    if t.free_rules.len > 0 then Int_stack.pop t.free_rules
    else begin
      if (t.rule_top + 1) * rule_size > Array.length t.rules then
        t.rules <- grown t.rules t.rule_top rule_size;
      t.rule_top <- t.rule_top + 1;
      t.rule_top - 1
    end
  in
  let g = alloc_node t ~sym:0 ~reps:0 ~rule:r in
  let b = r * rule_size in
  t.rules.(b + f_guard) <- g;
  t.rules.(b + f_refcount) <- 0;
  t.rules.(b + f_rid) <- rid;
  r

(* Return the slots retired by one push to the free lists. *)
let recycle t =
  while t.dead_nodes.len > 0 do
    Int_stack.push t.free_nodes (Int_stack.pop t.dead_nodes)
  done;
  while t.dead_rules.len > 0 do
    let r = Int_stack.pop t.dead_rules in
    t.rules.((r * rule_size) + f_guard) <- -1;
    Int_stack.push t.free_rules r
  done

let create ?(rle = true) () =
  let t =
    {
      nodes = Array.make (64 * node_size) 0;
      node_top = 0;
      free_nodes = Int_stack.create ();
      dead_nodes = Int_stack.create ();
      rules = Array.make (16 * rule_size) 0;
      rule_top = 0;
      free_rules = Int_stack.create ();
      dead_rules = Int_stack.create ();
      slots = Array.make (64 * slot_size) (-1);
      mask = 63;
      digrams = 0;
      next_rid = 0;
      rle;
    }
  in
  ignore (alloc_rule t ~rid:(-1) : int);
  t

(* Back to the state [create] gives, keeping the grown arrays.  Slots
   past the tops are rewritten before they are read, so only the digram
   index needs clearing. *)
let reset t =
  t.node_top <- 0;
  t.rule_top <- 0;
  t.free_nodes.len <- 0;
  t.dead_nodes.len <- 0;
  t.free_rules.len <- 0;
  t.dead_rules.len <- 0;
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.digrams <- 0;
  t.next_rid <- 0;
  ignore (alloc_rule t ~rid:(-1) : int)

let new_rule t =
  let r = alloc_rule t ~rid:t.next_rid in
  t.next_rid <- t.next_rid + 1;
  r

(* Make a node; referencing a rule bumps its refcount. *)
let new_node t ~sym ~reps ~rule =
  if sym land 1 = 1 then set_refcount t rule (refcount t rule + 1);
  alloc_node t ~sym ~reps ~rule

let ref_node t r = new_node t ~sym:((2 * rid t r) + 1) ~reps:1 ~rule:r

(* ------------------------------------------------------------------ *)
(* Digram index *)

let[@inline] hash ea ra eb rb =
  let h = (((((ea * 0x2545F491) + ra) * 0x2545F491) + eb) * 0x2545F491) + rb in
  let h = (h lxor (h lsr 31)) * 0x1F3D5B79 in
  h lxor (h lsr 29)

(* The slot holding the key, or the empty slot ending its probe chain. *)
let rec probe slots mask ea ra eb rb i =
  let b = i * slot_size in
  if
    slots.(b) < 0
    || (slots.(b + 1) = ea && slots.(b + 2) = ra && slots.(b + 3) = eb && slots.(b + 4) = rb)
  then i
  else probe slots mask ea ra eb rb ((i + 1) land mask)

let slot_of t n =
  let m = next t n in
  let ea = sym t n and ra = reps t n and eb = sym t m and rb = reps t m in
  probe t.slots t.mask ea ra eb rb (hash ea ra eb rb land t.mask)

let grow_index t =
  let old = t.slots in
  let cap = 2 * (t.mask + 1) in
  t.slots <- Array.make (cap * slot_size) (-1);
  t.mask <- cap - 1;
  for i = 0 to (Array.length old / slot_size) - 1 do
    let b = i * slot_size in
    if old.(b) >= 0 then begin
      let ea = old.(b + 1) and ra = old.(b + 2) and eb = old.(b + 3) and rb = old.(b + 4) in
      let j = probe t.slots t.mask ea ra eb rb (hash ea ra eb rb land t.mask) in
      Array.blit old b t.slots (j * slot_size) slot_size
    end
  done

(* Store the digram at [n] in the empty slot [i]. *)
let fill t i n =
  let m = next t n and b = i * slot_size in
  t.slots.(b) <- n;
  t.slots.(b + 1) <- sym t n;
  t.slots.(b + 2) <- reps t n;
  t.slots.(b + 3) <- sym t m;
  t.slots.(b + 4) <- reps t m;
  t.digrams <- t.digrams + 1;
  if 2 * t.digrams > t.mask + 1 then grow_index t

(* Empty slot [hole], shifting later members of its probe run back so
   that no lookup stops early at the hole. *)
let rec shift slots mask hole j =
  let j = (j + 1) land mask in
  let b = j * slot_size in
  if slots.(b) < 0 then slots.(hole * slot_size) <- -1
  else begin
    let home = hash slots.(b + 1) slots.(b + 2) slots.(b + 3) slots.(b + 4) land mask in
    if (hole - home) land mask < (j - home) land mask then begin
      Array.blit slots b slots (hole * slot_size) slot_size;
      shift slots mask j j
    end
    else shift slots mask hole j
  end

let delete_slot t i =
  shift t.slots t.mask i i;
  t.digrams <- t.digrams - 1

let delete_digram t n =
  if not (is_guard t n || is_guard t (next t n)) then begin
    let i = slot_of t n in
    if t.slots.(i * slot_size) = n then delete_slot t i
  end

(* Index the digram starting at [n] (unconditional replace). *)
let index_digram t n =
  let i = slot_of t n in
  if t.slots.(i * slot_size) < 0 then fill t i n else t.slots.(i * slot_size) <- n

(* The node indexing the digram at [n], or -1 after indexing [n] itself. *)
let find_or_index t n =
  let i = slot_of t n in
  let m = t.slots.(i * slot_size) in
  if m < 0 then fill t i n;
  m

(* ------------------------------------------------------------------ *)
(* List surgery *)

(* Insert the fresh, unlinked node [x] right after [y]. *)
let insert_after t y x =
  let z = next t y in
  delete_digram t y;
  set_next t x z;
  set_prev t z x;
  set_next t y x;
  set_prev t x y

let release_ref t x = if is_ref t x then set_refcount t (rule t x) (refcount t (rule t x) - 1)

(* Unlink [x], retiring the digrams it participates in. *)
let remove_node t x =
  delete_digram t (prev t x);
  delete_digram t x;
  release_ref t x;
  set_next t (prev t x) (next t x);
  set_prev t (next t x) (prev t x);
  Int_stack.push t.dead_nodes x

(* Append an already-constructed node at the end of a rule body without
   digram bookkeeping (used to build fresh rule bodies; the caller indexes
   the body digram explicitly, as the classic algorithm does). *)
let append_raw t r x =
  let g = guard t r in
  let last = prev t g in
  set_next t x g;
  set_prev t g x;
  set_next t last x;
  set_prev t x last

let full_rule t m = is_guard t (prev t m) && is_guard t (next t (next t m))

(* [check t n] (re)establishes the invariants for the digram starting at
   [n].  Returns true if it changed the structure (in which case [n] or
   its neighbours may no longer be linked). *)
let rec check t n =
  if is_guard t n || is_guard t (next t n) then false
  else if t.rle && sym t n = sym t (next t n) then begin
    rle_merge t n;
    true
  end
  else begin
    let m = find_or_index t n in
    if m < 0 || m = n || next t m = n || next t n = m then false
    else begin
      process_match t n m;
      true
    end
  end

(* Merge [n] with its equal successor, then re-establish invariants around
   the merged node. *)
and rle_merge t n =
  let m = next t n in
  delete_digram t (prev t n);
  delete_digram t n;
  delete_digram t m;
  set_reps t n (reps t n + reps t m);
  release_ref t m;
  set_next t n (next t m);
  set_prev t (next t m) n;
  Int_stack.push t.dead_nodes m;
  if not (check t (prev t n)) then ignore (check t n : bool)

(* Replace the digram at [node] (two nodes) by a reference to rule [r]. *)
and substitute t node r =
  let q = prev t node in
  remove_node t (next t node);
  remove_node t node;
  let x = ref_node t r in
  insert_after t q x;
  if not (check t q) then ignore (check t x : bool)

(* The new digram at [n] equals the indexed digram at [m]. *)
and process_match t n m =
  let r =
    if full_rule t m then begin
      let r = rule t (prev t m) in
      substitute t n r;
      r
    end
    else begin
      let r = new_rule t in
      let c1 = new_node t ~sym:(sym t m) ~reps:(reps t m) ~rule:(rule t m) in
      let m2 = next t m in
      let c2 = new_node t ~sym:(sym t m2) ~reps:(reps t m2) ~rule:(rule t m2) in
      append_raw t r c1;
      append_raw t r c2;
      substitute t m r;
      substitute t n r;
      index_digram t c1;
      r
    end
  in
  enforce_utility t r

(* Expand underused rules referenced from [r]'s body.  A reference node
   with reps >= 2 keeps its rule useful even when it is the only one. *)
and enforce_utility t r =
  let g = guard t r in
  let body_first = next t g in
  if not (is_guard t body_first) then maybe_expand t body_first;
  let body_last = prev t g in
  if (not (is_guard t body_last)) && body_last <> next t g then maybe_expand t body_last

and maybe_expand t node =
  if is_ref t node && reps t node = 1 then begin
    let x = rule t node in
    if refcount t x = 1 then expand_reference t node x
  end

(* [node] is the sole reference to rule [x]: splice [x]'s body in place of
   [node] and retire the rule. *)
and expand_reference t node x =
  let q = prev t node and nxt = next t node in
  let g = guard t x in
  let f = next t g and l = prev t g in
  delete_digram t q;
  delete_digram t node;
  set_next t q f;
  set_prev t f q;
  set_next t l nxt;
  set_prev t nxt l;
  set_refcount t x 0;
  Int_stack.push t.dead_nodes node;
  Int_stack.push t.dead_nodes g;
  Int_stack.push t.dead_rules x;
  if not (check t l) then ignore (check t q : bool)

let push t v =
  let lastn = prev t (guard t s_rule) in
  let x = alloc_node t ~sym:(2 * v) ~reps:1 ~rule:(-1) in
  append_raw t s_rule x;
  ignore (check t lastn : bool);
  recycle t

let node_capacity t = Array.length t.nodes / node_size

(* ------------------------------------------------------------------ *)
(* Export                                                               *)

let body_nodes t r =
  let g = guard t r in
  let rec walk acc n = if n = g then List.rev acc else walk (n :: acc) (next t n) in
  walk [] (next t g)

(* Live auxiliary rule slots, in rule-id (creation) order. *)
let live_rules t =
  List.init t.rule_top Fun.id
  |> List.filter (fun r -> r <> s_rule && guard t r >= 0)
  |> List.sort (fun a b -> compare (rid t a) (rid t b))

let finalize t =
  let live = live_rules t in
  let index = Hashtbl.create 64 in
  List.iteri (fun i r -> Hashtbl.replace index r i) live;
  let entry_of n : Grammar.entry =
    let sym = if is_ref t n then Grammar.N (Hashtbl.find index (rule t n)) else Grammar.T (sym t n asr 1) in
    { sym; reps = reps t n }
  in
  let body_of r = List.map entry_of (body_nodes t r) in
  { Grammar.main = body_of s_rule; rules = Array.of_list (List.map body_of live) }

let of_seq ?rle a =
  let t = create ?rle () in
  Array.iter (push t) a;
  finalize t

(* ------------------------------------------------------------------ *)
(* Invariant checking (test support)                                    *)

let check_invariants t =
  let live = live_rules t in
  let rules = s_rule :: live in
  let seen = Hashtbl.create 256 in
  let violation = ref None in
  let note fmt = Printf.ksprintf (fun s -> if !violation = None then violation := Some s) fmt in
  List.iter
    (fun r ->
      let nodes = body_nodes t r in
      List.iter
        (fun n ->
          if reps t n < 1 then note "node %d in rule %d has reps %d" n (rid t r) (reps t n);
          if prev t (next t n) <> n then note "broken links at node %d in rule %d" n (rid t r))
        nodes;
      (* digram uniqueness, allowing physically-overlapping duplicates.  In
         plain (non-RLE) mode, runs of equal symbols legitimately leave
         latent equal-symbol digrams behind (the classic algorithm skips
         overlapping digrams and does not revisit them when a neighbouring
         substitution unblocks them), so equal-symbol duplicates are only a
         violation when run-length merging is on — where they cannot occur
         at all. *)
      let rec pairs = function
        | a :: (b :: _ as rest) ->
            let key = (sym t a, reps t a, sym t b, reps t b) in
            (match Hashtbl.find_opt seen key with
            | Some other when other <> a && next t other <> a && next t a <> other ->
                if t.rle || not (same_sym t a b) then note "duplicate digram in rule %d" (rid t r)
            | Some _ -> ()
            | None -> Hashtbl.replace seen key a);
            pairs rest
        | [ _ ] | [] -> ()
      in
      pairs nodes;
      (* run-length invariant *)
      if t.rle then begin
        let rec adj = function
          | a :: (b :: _ as rest) ->
              if same_sym t a b then note "unmerged adjacent symbols in rule %d" (rid t r);
              adj rest
          | [ _ ] | [] -> ()
        in
        adj nodes
      end)
    rules;
  (* utility + refcount consistency *)
  let counts = Hashtbl.create 64 and apps = Hashtbl.create 64 in
  let bump tbl k d = Hashtbl.replace tbl k (d + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun r ->
      List.iter
        (fun n ->
          if is_ref t n then begin
            bump counts (rule t n) 1;
            bump apps (rule t n) (reps t n)
          end)
        (body_nodes t r))
    rules;
  List.iter
    (fun r ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts r) in
      let a = Option.value ~default:0 (Hashtbl.find_opt apps r) in
      if c <> refcount t r then
        note "rule %d refcount %d but %d references found" (rid t r) (refcount t r) c;
      if a < 2 then note "rule %d applied only %d time(s)" (rid t r) a)
    live;
  match !violation with
  | Some v -> Error v
  | None -> Ok (Printf.sprintf "%d rules, %d digrams indexed" (List.length live) t.digrams)

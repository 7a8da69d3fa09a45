(* Longest common subsequence, three ways:

   - [length ~eq]: the classic O(nm) rolling-row DP for arbitrary element
     types (kept as the reference oracle for the int entry points);
   - [length_int]: the bit-parallel LLCS of Crochemore–Iliopoulos–Pinzon–
     Reid / Hyyro for [int array]s — O(nm / 62) word operations, which is
     what the main-rule clustering loop runs on interned entry ids;
   - [pairs_int]: Hirschberg's divide-and-conquer backtracking in
     O(min(n, m)) memory.  The previous implementation materialized the
     full (n+1)x(m+1) DP table and silently returned no matches above a
     16M-cell budget, which made large-main merges degrade to pure
     concatenation; Hirschberg removes that cliff entirely. *)

(* ------------------------------------------------------------------ *)
(* Generic rolling-row LCS length *)

let length ~eq a b =
  let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
  let n = Array.length a and m = Array.length b in
  if m = 0 then 0
  else begin
    let prev = Array.make (m + 1) 0 in
    let cur = Array.make (m + 1) 0 in
    for i = 1 to n do
      for j = 1 to m do
        cur.(j) <-
          (if eq a.(i - 1) b.(j - 1) then prev.(j - 1) + 1 else max prev.(j) cur.(j - 1))
      done;
      Array.blit cur 0 prev 0 (m + 1)
    done;
    prev.(m)
  end

(* ------------------------------------------------------------------ *)
(* Bit-parallel LLCS over int arrays (Hyyro's formulation):
     L := all-ones over m bits
     per text symbol c:  U := L land M[c];  L := (L + U) lor (L - U)
     llcs = m - popcount L
   with the shorter array as the m-bit register, in 62-bit digits so every
   per-digit add fits a 63-bit OCaml int.  Since U is a subset of L
   digit-wise, the subtraction never borrows across digits; only the
   addition propagates a carry. *)

let word_bits = 62
let word_mask = (1 lsl word_bits) - 1

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let length_int (a : int array) (b : int array) =
  let a, b = if Array.length a <= Array.length b then (a, b) else (b, a) in
  let m = Array.length a in
  if m = 0 then 0
  else begin
    let nw = (m + word_bits - 1) / word_bits in
    (* match masks: symbol -> bit vector of its positions in [a] *)
    let masks : (int, int array) Hashtbl.t = Hashtbl.create (2 * m) in
    for i = 0 to m - 1 do
      let w =
        match Hashtbl.find_opt masks a.(i) with
        | Some w -> w
        | None ->
            let w = Array.make nw 0 in
            Hashtbl.add masks a.(i) w;
            w
      in
      w.(i / word_bits) <- w.(i / word_bits) lor (1 lsl (i mod word_bits))
    done;
    let l = Array.make nw word_mask in
    let tail = m mod word_bits in
    let tail_mask = if tail = 0 then word_mask else (1 lsl tail) - 1 in
    l.(nw - 1) <- tail_mask;
    Array.iter
      (fun c ->
        match Hashtbl.find_opt masks c with
        | None -> () (* U = 0: L unchanged *)
        | Some mk ->
            let carry = ref 0 in
            for k = 0 to nw - 1 do
              let lk = Array.unsafe_get l k in
              let u = lk land Array.unsafe_get mk k in
              let sum = lk + u + !carry in
              carry := sum lsr word_bits;
              (* (lk - u) is exact per digit because u subset lk *)
              Array.unsafe_set l k ((sum land word_mask) lor (lk - u))
            done)
      b;
    l.(nw - 1) <- l.(nw - 1) land tail_mask;
    m - Array.fold_left (fun acc w -> acc + popcount w) 0 l
  end

(* ------------------------------------------------------------------ *)
(* Hirschberg backtracking: O(nm) time, O(m) memory, no cell budget.
   Matched pairs are strictly increasing in both coordinates and their
   count equals the LCS length.  The loops are monomorphic, with [=] on
   immediates and no closure per cell. *)

let forward_row_int (a : int array) alo ahi (b : int array) blo bn =
  let prev = ref (Array.make (bn + 1) 0) and cur = ref (Array.make (bn + 1) 0) in
  for i = alo to ahi - 1 do
    let p = !prev and c = !cur in
    let ai = Array.unsafe_get a i in
    for j = 1 to bn do
      let v =
        if ai = Array.unsafe_get b (blo + j - 1) then Array.unsafe_get p (j - 1) + 1
        else
          let x = Array.unsafe_get p j and y = Array.unsafe_get c (j - 1) in
          if x >= y then x else y
      in
      Array.unsafe_set c j v
    done;
    prev := c;
    cur := p
  done;
  !prev

let backward_row_int (a : int array) alo ahi (b : int array) blo bn =
  let prev = ref (Array.make (bn + 1) 0) and cur = ref (Array.make (bn + 1) 0) in
  for i = ahi - 1 downto alo do
    let p = !prev and c = !cur in
    let ai = Array.unsafe_get a i in
    for j = bn - 1 downto 0 do
      let v =
        if ai = Array.unsafe_get b (blo + j) then Array.unsafe_get p (j + 1) + 1
        else
          let x = Array.unsafe_get p j and y = Array.unsafe_get c (j + 1) in
          if x >= y then x else y
      in
      Array.unsafe_set c j v
    done;
    prev := c;
    cur := p
  done;
  !prev

let rec hirschberg_int (a : int array) alo ahi (b : int array) blo bhi acc =
  let an = ahi - alo and bn = bhi - blo in
  if an = 0 || bn = 0 then acc
  else if an = 1 then begin
    let v = a.(alo) in
    let rec find j = if j >= bhi then acc else if v = b.(j) then (alo, j) :: acc else find (j + 1) in
    find blo
  end
  else begin
    let mid = alo + (an / 2) in
    let f = forward_row_int a alo mid b blo bn in
    let g = backward_row_int a mid ahi b blo bn in
    let best = ref (-1) and split = ref 0 in
    for k = 0 to bn do
      let v = f.(k) + g.(k) in
      if v > !best then begin
        best := v;
        split := k
      end
    done;
    let k = !split in
    let acc = hirschberg_int a alo mid b blo (blo + k) acc in
    hirschberg_int a mid ahi b (blo + k) bhi acc
  end

let pairs_int (a : int array) (b : int array) =
  List.rev (hirschberg_int a 0 (Array.length a) b 0 (Array.length b) [])

(* ------------------------------------------------------------------ *)
(* Edit distances *)

let indel_distance ~eq a b =
  Array.length a + Array.length b - (2 * length ~eq a b)

let normalized_distance ~eq a b =
  let total = Array.length a + Array.length b in
  if total = 0 then 0.0 else float_of_int (indel_distance ~eq a b) /. float_of_int total

let indel_distance_int a b = Array.length a + Array.length b - (2 * length_int a b)

let normalized_distance_int a b =
  let total = Array.length a + Array.length b in
  if total = 0 then 0.0 else float_of_int (indel_distance_int a b) /. float_of_int total

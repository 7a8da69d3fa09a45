type result = { x : float array; residual : float; iterations : int }

let gradient a b x =
  (* w = A^T (b - A x), the negative gradient of 1/2 ||Ax - b||^2 *)
  let ax = Matrix.mul_vec a x in
  let r = Array.mapi (fun i v -> b.(i) -. v) ax in
  let n = Matrix.cols a in
  Array.init n (fun j ->
      let s = ref 0.0 in
      for k = 0 to Matrix.rows a - 1 do
        s := !s +. (Matrix.get a k j *. r.(k))
      done;
      !s)

(* Least squares restricted to the passive set: returns the full-length
   solution with zeros on the active set. *)
let solve_passive a b passive =
  let n = Matrix.cols a in
  let idx = ref [] in
  for j = n - 1 downto 0 do
    if passive.(j) then idx := j :: !idx
  done;
  let idx = Array.of_list !idx in
  let k = Array.length idx in
  if k = 0 then Array.make n 0.0
  else begin
    let sub = Matrix.create ~rows:(Matrix.rows a) ~cols:k in
    for i = 0 to Matrix.rows a - 1 do
      for j = 0 to k - 1 do
        Matrix.set sub i j (Matrix.get a i idx.(j))
      done
    done;
    let z = Lsq.solve sub b in
    let x = Array.make n 0.0 in
    Array.iteri (fun j col -> x.(col) <- z.(j)) idx;
    x
  end

let solve a b =
  if Array.length b <> Matrix.rows a then invalid_arg "Nnls.solve: dimension mismatch";
  let n = Matrix.cols a in
  let max_iter = 30 * n in
  let passive = Array.make n false in
  let x = Array.make n 0.0 in
  let tol =
    (* relative: the gradient A^T(b - Ax) scales with |A| * |b| *)
    let bmax = Array.fold_left (fun acc v -> max acc (abs_float v)) 0.0 b in
    let amax = ref 0.0 in
    for i = 0 to Matrix.rows a - 1 do
      for j = 0 to n - 1 do
        amax := max !amax (abs_float (Matrix.get a i j))
      done
    done;
    if !amax = 0.0 || bmax = 0.0 then infinity else 1e-12 *. !amax *. bmax *. float_of_int n
  in
  let iterations = ref 0 in
  let continue = ref true in
  while !continue && !iterations < max_iter do
    incr iterations;
    let w = gradient a b x in
    (* Pick the most-violating active coordinate. *)
    let best = ref (-1) and best_w = ref tol in
    for j = 0 to n - 1 do
      if (not passive.(j)) && w.(j) > !best_w then begin
        best := j;
        best_w := w.(j)
      end
    done;
    if !best < 0 then continue := false
    else begin
      passive.(!best) <- true;
      (* Inner loop: restore feasibility of the passive-set LSQ solution. *)
      let feasible = ref false in
      let inner = ref 0 in
      while (not !feasible) && !inner < 2 * n do
        incr inner;
        let z = solve_passive a b passive in
        let min_alpha = ref infinity and any_neg = ref false in
        for j = 0 to n - 1 do
          if passive.(j) && z.(j) <= 0.0 then begin
            any_neg := true;
            let alpha = x.(j) /. (x.(j) -. z.(j)) in
            if alpha < !min_alpha then min_alpha := alpha
          end
        done;
        if not !any_neg then begin
          Array.blit z 0 x 0 n;
          feasible := true
        end
        else begin
          let alpha = !min_alpha in
          for j = 0 to n - 1 do
            if passive.(j) then begin
              x.(j) <- x.(j) +. (alpha *. (z.(j) -. x.(j)));
              if x.(j) <= 1e-12 then begin
                x.(j) <- 0.0;
                passive.(j) <- false
              end
            end
          done
        end
      done
    end
  done;
  { x; residual = Lsq.residual_norm2 a x b; iterations = !iterations }

let kkt_violation a b x =
  let w = gradient a b x in
  let v = ref 0.0 in
  Array.iteri (fun j wj -> if x.(j) <= 1e-12 && wj > !v then v := wj) w;
  !v

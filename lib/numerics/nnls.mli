(** Non-negative least squares: minimize ||A x - b||^2 subject to x >= 0.

    Lawson–Hanson active-set algorithm (Solving Least Squares Problems,
    1974, ch. 23).  This is the solver behind Siesta's computation-proxy
    search: the paper's constrained quadratic program (eqs. 4–5 plus the
    loop-overhead constraint) is reduced to NNLS by a change of variables
    (see {!Siesta_synth.Proxy_search}). *)

type result = {
  x : float array;  (** the minimizer, all entries >= 0 *)
  residual : float;  (** ||A x - b||^2 at the minimizer *)
  iterations : int;  (** outer active-set iterations used *)
}

val solve : Matrix.t -> float array -> result
(** [solve a b] minimizes ||a x - b||^2 over x >= 0, in at most
    [30 * cols] outer iterations; the algorithm terminates earlier at a
    KKT point.
    @raise Invalid_argument on dimension mismatch. *)

val kkt_violation : Matrix.t -> float array -> float array -> float
(** [kkt_violation a b x] is the largest positive component of the negative
    gradient [A^T (b - A x)] over the zero set of [x] — 0 at an exact
    optimum.  Exposed for property tests. *)

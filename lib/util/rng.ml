(* The 64-bit state lives unboxed in an 8-byte buffer: a mutable [int64]
   field would allocate a fresh box on every draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* SplitMix64 output function: mix the incremented state. *)
let[@inline] int64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* land max_int keeps the low 62 bits: uniform and non-negative *)
  let v = Int64.to_int (int64 t) land max_int in
  v mod bound

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  (* 53 significant bits, matching an IEEE double mantissa *)
  bound *. (v /. 9007199254740992.0)

let bool t = Int64.logand (int64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  let u1 = ref (float t 1.0) in
  while !u1 <= 1e-300 do
    u1 := float t 1.0
  done;
  let u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log !u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

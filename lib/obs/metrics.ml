(* Enable flag: an [Atomic] immediate read is the whole cost of a
   disabled instrument. *)
let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* ------------------------------------------------------------------ *)
(* Histograms: fixed log-scale buckets, two per decade over 1e-9..1e3
   (covers nanoseconds to kilo-units), one underflow and one overflow
   bucket.  Bucket upper bounds are 1e-9 * 10^(i/2).  Everything is an
   atomic immediate except [sum], which needs a CAS loop (boxed floats);
   [sum] updates are the only allocation and only happen while
   recording is on or the histogram is pool-local. *)

module Histo = struct
  let decades = 12 (* 1e-9 .. 1e3 *)
  let per_decade = 2
  let scaled = decades * per_decade (* log-scale buckets *)
  let nbuckets = scaled + 2 (* + underflow + overflow *)
  let lo = 1e-9

  type t = { counts : int Atomic.t array; sum : float Atomic.t; total : int Atomic.t }

  let create () =
    {
      counts = Array.init nbuckets (fun _ -> Atomic.make 0);
      sum = Atomic.make 0.0;
      total = Atomic.make 0;
    }

  let bucket_upper i =
    if i <= 0 then lo
    else if i > scaled then infinity
    else lo *. (10.0 ** (float_of_int i /. float_of_int per_decade))

  let bucket_index v =
    if Float.is_nan v || v <= lo then 0
    else
      let f = float_of_int per_decade *. (Float.log10 v +. 9.0) in
      (* value exactly on a boundary belongs to that bucket (upper bound
         inclusive), hence [ceil] *)
      let i = int_of_float (Float.ceil (f -. 1e-9)) in
      if i < 1 then 1 else if i > scaled then scaled + 1 else i

  let rec add_float a d =
    let cur = Atomic.get a in
    if not (Atomic.compare_and_set a cur (cur +. d)) then add_float a d

  let observe h v =
    Atomic.incr h.counts.(bucket_index v);
    Atomic.incr h.total;
    add_float h.sum v

  let count h = Atomic.get h.total
  let sum h = Atomic.get h.sum

  (* The overflow bucket's upper bound is infinite; [quantile] takes it
     at the largest finite bound so its result is always finite. *)
  let sum_bound i = if i >= scaled + 1 then bucket_upper scaled else bucket_upper i

  let nonzero_buckets h =
    let out = ref [] in
    for i = nbuckets - 1 downto 0 do
      let c = Atomic.get h.counts.(i) in
      if c > 0 then out := (i, bucket_upper i, c) :: !out
    done;
    !out

  let bucket_lower i = if i <= 0 then 0.0 else bucket_upper (i - 1)

  (* Quantile with linear interpolation inside the covering bucket: the
     continuous rank [q * n] is located in the cumulative counts, then
     mapped linearly between the bucket's bounds instead of snapping to
     the upper bound (which made p50 and p99 collapse to the same value
     whenever the mass shared a bucket).  The underflow bucket
     interpolates over [0, lo]; the overflow bucket is pinned between
     its finite [sum_bound] and itself, so the result is always finite.
     Defined edges: empty histogram -> nan; q <= 0 -> lower bound of the
     first occupied bucket; q >= 1 -> upper bound of the last occupied
     bucket. *)
  let quantile h q =
    let n = count h in
    if n = 0 then Float.nan
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target = q *. float_of_int n in
      let ans = ref (sum_bound (nbuckets - 1)) in
      let acc = ref 0 in
      (try
         for i = 0 to nbuckets - 1 do
           let c = Atomic.get h.counts.(i) in
           if c > 0 then begin
             let before = !acc in
             acc := before + c;
             if float_of_int !acc >= target then begin
               let lower = bucket_lower i and upper = sum_bound i in
               let frac = (target -. float_of_int before) /. float_of_int c in
               let frac = Float.max 0.0 (Float.min 1.0 frac) in
               ans := lower +. (frac *. (upper -. lower));
               raise Exit
             end
           end
         done
       with Exit -> ());
      !ans
    end
end

(* ------------------------------------------------------------------ *)
(* Registry *)

type value = Counter of int | Gauge of float | Histogram of Histo.t

type cell =
  | C of int Atomic.t
  | G of float Atomic.t
  | H of Histo.t

type counter = int Atomic.t
type gauge = float Atomic.t
type histogram = Histo.t

let lock = Mutex.create ()
let table : (string, cell) Hashtbl.t = Hashtbl.create 64

let find_or_create name make classify =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some cell -> (
          match classify cell with
          | Some v -> v
          | None -> invalid_arg (Printf.sprintf "Metrics: %S already registered as another kind" name))
      | None ->
          let cell, v = make () in
          Hashtbl.add table name cell;
          v)

let counter name =
  find_or_create name
    (fun () ->
      let a = Atomic.make 0 in
      (C a, a))
    (function C a -> Some a | G _ | H _ -> None)

let gauge name =
  find_or_create name
    (fun () ->
      let a = Atomic.make 0.0 in
      (G a, a))
    (function G a -> Some a | C _ | H _ -> None)

let histogram name =
  find_or_create name
    (fun () ->
      let h = Histo.create () in
      (H h, h))
    (function H h -> Some h | C _ | G _ -> None)

let incr c n = if Atomic.get on then ignore (Atomic.fetch_and_add c n)
let set g v = if Atomic.get on then Atomic.set g v
let observe h v = if Atomic.get on then Histo.observe h v

let counter_value c = Atomic.get c

let snapshot () =
  let entries =
    Mutex.protect lock (fun () -> Hashtbl.fold (fun k cell acc -> (k, cell) :: acc) table [])
  in
  entries
  |> List.map (fun (k, cell) ->
         ( k,
           match cell with
           | C a -> Counter (Atomic.get a)
           | G a -> Gauge (Atomic.get a)
           | H h -> Histogram h ))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset () = Mutex.protect lock (fun () -> Hashtbl.reset table)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let to_text () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Buffer.add_string b (Printf.sprintf "%-44s counter %d\n" name n)
      | Gauge g -> Buffer.add_string b (Printf.sprintf "%-44s gauge   %g\n" name g)
      | Histogram h ->
          Buffer.add_string b
            (Printf.sprintf "%-44s histo   count=%d sum=%g mean=%g p50<=%g p99<=%g\n" name
               (Histo.count h) (Histo.sum h)
               (if Histo.count h = 0 then 0.0 else Histo.sum h /. float_of_int (Histo.count h))
               (Histo.quantile h 0.5) (Histo.quantile h 0.99)))
    (snapshot ());
  Buffer.contents b

let json_escape = Json.escape

(* Shortest decimal that parses back to the exact float: the ledger's
   compare path round-trips these documents through [Json.parse], so a
   lossy "%.9g" here would show up as phantom metric deltas. *)
let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if f = infinity then "\"inf\""
  else if f = neg_infinity then "\"-inf\""
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_json () =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  let entries = snapshot () in
  List.iteri
    (fun i (name, v) ->
      let body =
        match v with
        | Counter n -> Printf.sprintf "{\"type\": \"counter\", \"value\": %d}" n
        | Gauge g -> Printf.sprintf "{\"type\": \"gauge\", \"value\": %s}" (json_float g)
        | Histogram h ->
            let buckets =
              Histo.nonzero_buckets h
              |> List.map (fun (_, upper, c) ->
                     Printf.sprintf "{\"le\": %s, \"count\": %d}" (json_float upper) c)
              |> String.concat ", "
            in
            Printf.sprintf
              "{\"type\": \"histogram\", \"count\": %d, \"sum\": %s, \"buckets\": [%s]}"
              (Histo.count h) (json_float (Histo.sum h)) buckets
      in
      Buffer.add_string b
        (Printf.sprintf "  \"%s\": %s%s\n" (json_escape name) body
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string b "}\n";
  Buffer.contents b

let write ~path =
  let data = if Filename.check_suffix path ".json" then to_json () else to_text () in
  let oc = open_out path in
  output_string oc data;
  close_out oc

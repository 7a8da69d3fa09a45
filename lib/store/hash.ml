let fnv_offset_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv64 s =
  let h = ref fnv_offset_basis in
  for i = 0 to String.length s - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)));
    h := Int64.mul !h fnv_prime
  done;
  !h

let fnv64_hex s = Printf.sprintf "%016Lx" (fnv64 s)
let content_hash s = Digest.to_hex (Digest.string s)

let is_hex s =
  s <> ""
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

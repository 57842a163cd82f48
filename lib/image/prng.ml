(* The splitmix64 counter lives in an 8-byte buffer: [Bytes.get_int64_ne]
   and [Bytes.set_int64_ne] read and write it unboxed, where a mutable
   [int64] field would box a fresh value on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

(* splitmix64 finaliser (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let bits64 t = next t

let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the conversion to a 63-bit native int stays
     non-negative. *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let[@inline] float t bound =
  if bound <= 0. then invalid_arg "Prng.float: bound must be positive";
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  (* 53 significant bits, scaled to [0, 1). *)
  r /. 9007199254740992. *. bound

(* Redraws [u1] until it exceeds 1e-12, then draws [u2]: the same
   draws, in the same order, as a recursive retry. Inlined into both
   draws below, so [gaussian_int] truncates the double unboxed. *)
let[@inline] box_muller t ~mu ~sigma =
  let u1 = ref (float t 1.) in
  while !u1 <= 1e-12 do
    u1 := float t 1.
  done;
  let u2 = float t 1. in
  mu +. (sigma *. sqrt (-2. *. log !u1) *. cos (2. *. Float.pi *. u2))

let gaussian t ~mu ~sigma = box_muller t ~mu ~sigma

let gaussian_int t ~mu ~sigma = int_of_float (box_muller t ~mu ~sigma)

let bool t = Int64.logand (next t) 1L = 1L

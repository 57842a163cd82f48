let bit_width n =
  (* Number of bits in the binary representation of n >= 1. *)
  let rec loop acc n = if n = 0 then acc else loop (acc + 1) (n lsr 1) in
  loop 0 n

let write_ue w n =
  if n < 0 then invalid_arg "Golomb.write_ue: negative";
  let v = n + 1 in
  let len = bit_width v in
  (* len-1 zero bits, then v in len bits. *)
  Bitio.Writer.put_bits w ~value:0 ~bits:(len - 1);
  Bitio.Writer.put_bits w ~value:v ~bits:len

(* [write_ue] emits at most 61 zeros ([put_bits] caps a value at 62
   bits), and a 62-zero prefix would put its one bit in the sign of an
   OCaml int. *)
let max_prefix = 61

let read_ue r =
  let zeros = Bitio.Reader.count_zeros r in
  if zeros > max_prefix then invalid_arg "Golomb.read_ue: prefix longer than 61 zeros";
  ((1 lsl zeros) lor Bitio.Reader.get_bits r zeros) - 1

let zigzag_of_int n = if n > 0 then (2 * n) - 1 else -2 * n

let int_of_zigzag z = if z land 1 = 1 then (z + 1) / 2 else -(z / 2)

let write_se w n = write_ue w (zigzag_of_int n)

let read_se r = int_of_zigzag (read_ue r)

let ue_bit_length n =
  let v = n + 1 in
  (2 * bit_width v) - 1

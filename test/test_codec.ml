(* Tests for the video codec substrate: bit I/O, entropy codes, the
   transform pipeline and full encode/decode round trips. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- Bitio ------------------------------------------------------------ *)

let test_bitio_single_bits () =
  let w = Codec.Bitio.Writer.create () in
  List.iter (Codec.Bitio.Writer.put_bit w) [ true; false; true; true ];
  check int "bit length" 4 (Codec.Bitio.Writer.bit_length w);
  let r = Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents w) in
  Alcotest.(check (list bool))
    "bits back"
    [ true; false; true; true ]
    (List.init 4 (fun _ -> Codec.Bitio.Reader.get_bit r))

let test_bitio_multibit_values () =
  let w = Codec.Bitio.Writer.create () in
  Codec.Bitio.Writer.put_bits w ~value:0b101101 ~bits:6;
  Codec.Bitio.Writer.put_bits w ~value:0 ~bits:0;
  Codec.Bitio.Writer.put_bits w ~value:1023 ~bits:10;
  let r = Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents w) in
  check int "first value" 0b101101 (Codec.Bitio.Reader.get_bits r 6);
  check int "second value" 1023 (Codec.Bitio.Reader.get_bits r 10)

let test_bitio_value_too_wide () =
  let w = Codec.Bitio.Writer.create () in
  Alcotest.check_raises "does not fit"
    (Invalid_argument "Bitio.put_bits: value does not fit") (fun () ->
      Codec.Bitio.Writer.put_bits w ~value:4 ~bits:2)

let test_bitio_alignment () =
  let w = Codec.Bitio.Writer.create () in
  Codec.Bitio.Writer.put_bit w true;
  Codec.Bitio.Writer.put_byte_aligned w 0xAB;
  let s = Codec.Bitio.Writer.contents w in
  check int "two bytes" 2 (String.length s);
  let r = Codec.Bitio.Reader.of_string s in
  check bool "first bit" true (Codec.Bitio.Reader.get_bit r);
  check int "aligned byte" 0xAB (Codec.Bitio.Reader.get_byte_aligned r)

let test_bitio_out_of_bits () =
  let r = Codec.Bitio.Reader.of_string "" in
  check bool "raises at end" true
    (match Codec.Bitio.Reader.get_bit r with
    | exception Codec.Bitio.Reader.Out_of_bits -> true
    | _ -> false)

let prop_bitio_roundtrip =
  QCheck2.Test.make ~name:"bitio round-trips random bit sequences"
    QCheck2.Gen.(small_list (pair (0 -- 1023) (0 -- 10)))
    (fun pairs ->
      let pairs = List.map (fun (v, b) -> (v land ((1 lsl b) - 1), b)) pairs in
      let w = Codec.Bitio.Writer.create () in
      List.iter (fun (v, b) -> Codec.Bitio.Writer.put_bits w ~value:v ~bits:b) pairs;
      let r = Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents w) in
      List.for_all (fun (v, b) -> Codec.Bitio.Reader.get_bits r b = v) pairs)

(* --- Golomb ----------------------------------------------------------- *)

let roundtrip_ue n =
  let w = Codec.Bitio.Writer.create () in
  Codec.Golomb.write_ue w n;
  Codec.Golomb.read_ue (Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents w))

let roundtrip_se n =
  let w = Codec.Bitio.Writer.create () in
  Codec.Golomb.write_se w n;
  Codec.Golomb.read_se (Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents w))

let test_golomb_small_values () =
  List.iter (fun n -> check int (Printf.sprintf "ue %d" n) n (roundtrip_ue n))
    [ 0; 1; 2; 3; 7; 8; 255; 256; 65535 ];
  List.iter (fun n -> check int (Printf.sprintf "se %d" n) n (roundtrip_se n))
    [ 0; 1; -1; 2; -2; 100; -100; 32767; -32768 ]

let test_golomb_code_lengths () =
  (* ue(0) = "1" (1 bit), ue(1) = "010" (3 bits), ue(2) = "011". *)
  check int "ue 0 length" 1 (Codec.Golomb.ue_bit_length 0);
  check int "ue 1 length" 3 (Codec.Golomb.ue_bit_length 1);
  check int "ue 6 length" 5 (Codec.Golomb.ue_bit_length 6);
  let w = Codec.Bitio.Writer.create () in
  Codec.Golomb.write_ue w 6;
  check int "declared length matches written" 5 (Codec.Bitio.Writer.bit_length w)

let test_golomb_negative_rejected () =
  let w = Codec.Bitio.Writer.create () in
  Alcotest.check_raises "negative ue" (Invalid_argument "Golomb.write_ue: negative")
    (fun () -> Codec.Golomb.write_ue w (-1))

let prop_golomb_ue_roundtrip =
  QCheck2.Test.make ~name:"exp-golomb ue round-trip" QCheck2.Gen.(0 -- 1_000_000)
    (fun n -> roundtrip_ue n = n)

let prop_golomb_se_roundtrip =
  QCheck2.Test.make ~name:"exp-golomb se round-trip"
    QCheck2.Gen.(-100_000 -- 100_000) (fun n -> roundtrip_se n = n)

(* A 62-zero prefix once read as [1 lsl 62 = min_int]: the bit string
   0x62, 1, 0x61, 1 decoded to -4611686018427387904, and a block count
   coded that way gave a silently all-zero block. *)
let wrapping_ue () =
  let w = Codec.Bitio.Writer.create () in
  Codec.Bitio.Writer.put_bits w ~value:0 ~bits:62;
  Codec.Bitio.Writer.put_bit w true;
  Codec.Bitio.Writer.put_bits w ~value:0 ~bits:61;
  Codec.Bitio.Writer.put_bit w true;
  w

let test_golomb_long_prefix_rejected () =
  let data = Codec.Bitio.Writer.contents (wrapping_ue ()) in
  check int "16 bytes" 16 (String.length data);
  check bool "raises" true
    (match Codec.Golomb.read_ue (Codec.Bitio.Reader.of_string data) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The bit-at-a-time reader and Exp-Golomb decoder the byte-wise ones
   replaced, kept as the reference they must agree with. Its [read_ue]
   carries the 61-zero limit. *)
module Ref_reader = struct
  type t = { data : string; mutable bit_pos : int }

  let total_bits r = String.length r.data * 8

  let get_bit r =
    if r.bit_pos >= total_bits r then raise Codec.Bitio.Reader.Out_of_bits;
    let byte = Char.code r.data.[r.bit_pos lsr 3] in
    let bit = (byte lsr (7 - (r.bit_pos land 7))) land 1 = 1 in
    r.bit_pos <- r.bit_pos + 1;
    bit

  let get_bits r n =
    if n < 0 || n > 62 then invalid_arg "get_bits";
    let acc = ref 0 in
    for _ = 1 to n do
      acc := (!acc lsl 1) lor (if get_bit r then 1 else 0)
    done;
    !acc

  let align r =
    let rem = r.bit_pos land 7 in
    if rem <> 0 then begin
      let skip = 8 - rem in
      if r.bit_pos + skip > total_bits r then raise Codec.Bitio.Reader.Out_of_bits;
      r.bit_pos <- r.bit_pos + skip
    end

  let read_ue r =
    let rec count_zeros acc = if get_bit r then acc else count_zeros (acc + 1) in
    let zeros = count_zeros 0 in
    if zeros > 61 then invalid_arg "read_ue";
    ((1 lsl zeros) lor get_bits r zeros) - 1

  let read_se r =
    let z = read_ue r in
    if z land 1 = 1 then (z + 1) / 2 else -(z / 2)
end

type read_op = Bit | Bits of int | Ue | Se | Align | Byte_aligned

(* Byte strings rich in zero bytes, so long Exp-Golomb prefixes and
   reads that run off the end are common. *)
let reader_case =
  QCheck2.Gen.(
    pair
      (string_size
         ~gen:(oneof [ char_range '\000' '\255'; return '\000'; char_range '\000' '\003' ])
         (0 -- 24))
      (list_size (1 -- 40)
         (oneof
            [
              return Bit; map (fun n -> Bits n) (0 -- 62); return Ue; return Se;
              return Align; return Byte_aligned;
            ])))

let prop_reader_matches_reference =
  QCheck2.Test.make ~count:5000
    ~name:"byte-wise reader agrees with the bit-at-a-time reference"
    reader_case
    (fun (data, ops) ->
      let r = Codec.Bitio.Reader.of_string data
      and rr = { Ref_reader.data; bit_pos = 0 } in
      let run f = match f () with v -> Some v | exception _ -> None in
      let step op =
        match op with
        | Bit ->
          ( run (fun () -> Bool.to_int (Codec.Bitio.Reader.get_bit r)),
            run (fun () -> Bool.to_int (Ref_reader.get_bit rr)) )
        | Bits n ->
          ( run (fun () -> Codec.Bitio.Reader.get_bits r n),
            run (fun () -> Ref_reader.get_bits rr n) )
        | Ue ->
          (run (fun () -> Codec.Golomb.read_ue r), run (fun () -> Ref_reader.read_ue rr))
        | Se ->
          (run (fun () -> Codec.Golomb.read_se r), run (fun () -> Ref_reader.read_se rr))
        | Align ->
          ( run (fun () -> Codec.Bitio.Reader.align r; 0),
            run (fun () -> Ref_reader.align rr; 0) )
        | Byte_aligned ->
          ( run (fun () -> Codec.Bitio.Reader.get_byte_aligned r),
            run (fun () -> Ref_reader.align rr; Ref_reader.get_bits rr 8) )
      in
      (* After a raise the two positions may differ, so the sequence
         stops at the first one. *)
      let rec go = function
        | [] -> true
        | op :: rest -> (
          match step op with
          | Some a, Some b -> a = b && go rest
          | None, None -> true
          | _ -> false)
      in
      go ops)

(* --- Zigzag ----------------------------------------------------------- *)

let test_zigzag_is_permutation () =
  let sorted = Array.copy Codec.Zigzag.scan_order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation of 0..63" (Array.init 64 Fun.id) sorted

let test_zigzag_starts_at_dc () =
  check int "first is DC" 0 Codec.Zigzag.scan_order.(0);
  (* The second and third entries are the two neighbours of DC. *)
  check bool "low frequencies first" true
    (List.mem Codec.Zigzag.scan_order.(1) [ 1; 8 ]
     && List.mem Codec.Zigzag.scan_order.(2) [ 1; 8 ])

(* --- Dct -------------------------------------------------------------- *)

let random_block seed =
  let rng = Image.Prng.create ~seed in
  Array.init 64 (fun _ -> float_of_int (Image.Prng.int rng 256))

let test_dct_roundtrip_accuracy () =
  let block = random_block 1 in
  let back = Codec.Dct.inverse (Codec.Dct.forward block) in
  Array.iteri
    (fun i v -> check bool (Printf.sprintf "sample %d" i) true (abs_float (v -. block.(i)) < 1e-9))
    back

let test_dct_dc_of_flat_block () =
  let block = Array.make 64 100. in
  let coeffs = Codec.Dct.forward block in
  (* Orthonormal DCT: DC = 8 * sample value for a flat block. *)
  check (Alcotest.float 1e-6) "dc" 800. coeffs.(0);
  for i = 1 to 63 do
    check (Alcotest.float 1e-9) (Printf.sprintf "ac %d" i) 0. coeffs.(i)
  done

let test_dct_parseval () =
  (* Orthonormality: energy is preserved. *)
  let block = random_block 2 in
  let coeffs = Codec.Dct.forward block in
  let energy a = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. a in
  check (Alcotest.float 1e-6) "energy preserved" (energy block) (energy coeffs)

let test_dct_bad_size () =
  Alcotest.check_raises "wrong size" (Invalid_argument "Dct: block must have 64 samples")
    (fun () -> ignore (Codec.Dct.forward [| 1. |]))

(* The dense separable inverse, term by term as the transform was
   first written: every sum starts from [0.] and runs in index order
   over all eight terms. *)
let dense_cosine =
  let n = 8 in
  Array.init 64 (fun i ->
      let u = i / n and x = i mod n in
      let alpha =
        if u = 0 then sqrt (1. /. float_of_int n) else sqrt (2. /. float_of_int n)
      in
      alpha
      *. cos (((2. *. float_of_int x) +. 1.) *. float_of_int u *. Float.pi
              /. (2. *. float_of_int n)))

let dense_inverse coeffs =
  let cosine u x = dense_cosine.((u * 8) + x) in
  let tmp = Array.make 64 0. and out = Array.make 64 0. in
  for y = 0 to 7 do
    for u = 0 to 7 do
      let acc = ref 0. in
      for x = 0 to 7 do
        acc := !acc +. (cosine x u *. coeffs.((y * 8) + x))
      done;
      tmp.((y * 8) + u) <- !acc
    done
  done;
  for u = 0 to 7 do
    for v = 0 to 7 do
      let acc = ref 0. in
      for y = 0 to 7 do
        acc := !acc +. (cosine y v *. tmp.((y * 8) + u))
      done;
      out.((v * 8) + u) <- !acc
    done
  done;
  out

(* Quantised levels of one of five shapes (all zero, DC only, a few
   scattered levels, a few rows, full), as the decoder dequantises
   them. *)
let random_levels ~shape rng =
  let levels = Array.make 64 0 in
  let level () = (if Image.Prng.bool rng then 1 else -1) * (1 + Image.Prng.int rng 60) in
  (match shape with
  | 0 -> ()
  | 1 -> levels.(0) <- level ()
  | 2 ->
    for _ = 1 + Image.Prng.int rng 8 downto 1 do
      levels.(Image.Prng.int rng 64) <- level ()
    done
  | 3 ->
    for _ = 1 + Image.Prng.int rng 3 downto 1 do
      let y = Image.Prng.int rng 8 in
      for x = 0 to 7 do
        if Image.Prng.bool rng then levels.((y * 8) + x) <- level ()
      done
    done
  | _ -> Array.iteri (fun i _ -> levels.(i) <- level ()) levels);
  levels

let same_bits a b =
  Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let prop_dct_inverse_matches_dense =
  QCheck2.Test.make ~count:100_000
    ~name:"sparse inverse DCT equals the dense transform bit for bit"
    QCheck2.Gen.(triple (0 -- 4) (1 -- 31) int)
    (fun (shape, qp, seed) ->
      let rng = Image.Prng.create ~seed in
      let levels = random_levels ~shape rng in
      let kind = if Image.Prng.bool rng then Codec.Quant.Luma else Codec.Quant.Chroma in
      let coeffs = Array.make 64 0. in
      let rows = Codec.Quant.dequantise (Codec.Quant.make ~qp) kind levels coeffs in
      (* A skipped row may hold -0 as well as +0. *)
      Array.iteri
        (fun i _ ->
          if rows land (1 lsl (i / 8)) = 0 && Image.Prng.bool rng then coeffs.(i) <- -0.)
        coeffs;
      let expected = dense_inverse coeffs in
      let sparse = Array.make 64 0. in
      Codec.Dct.inverse_into ~rows coeffs ~tmp:(Array.make 64 0.) sparse;
      same_bits expected sparse && same_bits expected (Codec.Dct.inverse coeffs))

(* --- Quant ------------------------------------------------------------ *)

let test_quant_zero_preserved () =
  let q = Codec.Quant.make ~qp:8 in
  let zeros = Array.make 64 0. in
  Alcotest.(check (array int)) "zeros stay zero" (Array.make 64 0)
    (Codec.Quant.quantise q Codec.Quant.Luma zeros)

let test_quant_coarser_at_higher_qp () =
  let coeffs = random_block 3 in
  let nnz qp =
    Codec.Quant.quantise (Codec.Quant.make ~qp) Codec.Quant.Luma coeffs
    |> Array.to_list
    |> List.filter (fun l -> l <> 0)
    |> List.length
  in
  check bool "higher qp kills more coefficients" true (nnz 31 <= nnz 1)

let test_quant_dequant_bounded_error () =
  let q = Codec.Quant.make ~qp:8 in
  let coeffs = random_block 4 in
  let levels = Codec.Quant.quantise q Codec.Quant.Luma coeffs in
  let back = Array.make 64 0. in
  ignore (Codec.Quant.dequantise q Codec.Quant.Luma levels back);
  (* Error per coefficient is at most half the quantisation step;
     the largest step at qp 8 is 121. *)
  Array.iteri
    (fun i v ->
      check bool (Printf.sprintf "coef %d" i) true (abs_float (v -. coeffs.(i)) <= 61.))
    back

let test_quant_invalid_qp () =
  Alcotest.check_raises "qp 0" (Invalid_argument "Quant.make: qp out of [1, 31]")
    (fun () -> ignore (Codec.Quant.make ~qp:0))

(* --- Coeff ------------------------------------------------------------ *)

let roundtrip_block levels =
  let w = Codec.Bitio.Writer.create () in
  Codec.Coeff.write_block w levels;
  let levels = Array.make 64 0 in
  Codec.Coeff.read_block (Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents w)) levels;
  levels

let test_coeff_all_zero_block () =
  let zeros = Array.make 64 0 in
  Alcotest.(check (array int)) "zeros round-trip" zeros (roundtrip_block zeros);
  check int "all-zero block costs one ue(0)" 1 (Codec.Coeff.bit_cost zeros)

let test_coeff_sparse_block () =
  let levels = Array.make 64 0 in
  levels.(0) <- 50;
  levels.(63) <- -3;
  Alcotest.(check (array int)) "sparse round-trip" levels (roundtrip_block levels)

let test_coeff_bit_cost_exact () =
  let levels = Array.init 64 (fun i -> if i mod 7 = 0 then (i mod 5) - 2 else 0) in
  let w = Codec.Bitio.Writer.create () in
  Codec.Coeff.write_block w levels;
  check int "bit cost matches writer" (Codec.Bitio.Writer.bit_length w)
    (Codec.Coeff.bit_cost levels)

let prop_coeff_roundtrip =
  QCheck2.Test.make ~name:"coefficient blocks round-trip"
    QCheck2.Gen.(array_size (return 64) (-40 -- 40))
    (fun levels -> roundtrip_block levels = levels)

(* --- Plane ------------------------------------------------------------ *)

let test_plane_edge_clamped_reads () =
  let p = Codec.Plane.create ~width:2 ~height:2 in
  Codec.Plane.set p ~x:0 ~y:0 7;
  Codec.Plane.set p ~x:1 ~y:1 9;
  check int "negative x clamps" 7 (Codec.Plane.get p ~x:(-5) ~y:0);
  check int "overflow clamps" 9 (Codec.Plane.get p ~x:10 ~y:10)

let test_plane_pad_and_crop () =
  let p = Codec.Plane.create ~width:5 ~height:3 in
  Codec.Plane.set p ~x:4 ~y:2 42;
  let padded = Codec.Plane.pad_to_multiple p 8 in
  check int "padded width" 8 padded.Codec.Plane.width;
  check int "padded height" 8 padded.Codec.Plane.height;
  check int "edge replicated" 42 (Codec.Plane.get padded ~x:7 ~y:7);
  for y = 0 to 2 do
    for x = 0 to 4 do
      check int "top-left kept" (Codec.Plane.get p ~x ~y) (Codec.Plane.get padded ~x ~y)
    done
  done;
  (* Converting the padded planes of a picture, cropped to its size,
     gives the picture the unpadded planes give. *)
  let img =
    Image.Raster.init ~width:5 ~height:3 (fun ~x ~y ->
        Image.Pixel.v (40 * x) (80 * y) (200 - (30 * x)))
  in
  let planes = Codec.Plane.of_raster img in
  let pad p = Codec.Plane.pad_to_multiple p 8 in
  check bool "padded planes crop back" true
    (Image.Raster.equal
       (Codec.Plane.to_raster planes)
       (Codec.Plane.to_raster_cropped
          { Codec.Plane.y = pad planes.y; cb = pad planes.cb; cr = pad planes.cr }
          ~width:5 ~height:3))

let test_plane_pad_identity_when_aligned () =
  let p = Codec.Plane.create ~width:8 ~height:16 in
  check bool "no-op pad is physical identity" true
    (Codec.Plane.pad_to_multiple p 8 == p)

(* The colour conversion as it was before [Plane.of_raster_into]: one
   accumulator per chroma site, then [pad_to_multiple]. Kept as the
   reference the one-pass, in-place kernel must match sample for
   sample. *)
let reference_planes ~multiple img =
  let w = Image.Raster.width img and h = Image.Raster.height img in
  let cw = (w + 1) / 2 and ch = (h + 1) / 2 in
  let yp = Codec.Plane.create ~width:w ~height:h
  and cbp = Codec.Plane.create ~width:cw ~height:ch
  and crp = Codec.Plane.create ~width:cw ~height:ch in
  let cb_acc = Array.make (cw * ch) 0
  and cr_acc = Array.make (cw * ch) 0
  and cnt = Array.make (cw * ch) 0 in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let i = (y * w) + x in
      let byte o = Char.code (Bytes.get (Image.Raster.data img) o) in
      let r = byte (3 * i) and g = byte ((3 * i) + 1) and b = byte ((3 * i) + 2) in
      yp.Codec.Plane.samples.(i) <- ((19595 * r) + (38470 * g) + (7471 * b) + 32768) lsr 16;
      let ci = ((y / 2) * cw) + (x / 2) in
      cb_acc.(ci) <- cb_acc.(ci) + 128 + (((-11056 * r) - (21712 * g) + (32768 * b)) asr 16);
      cr_acc.(ci) <- cr_acc.(ci) + 128 + (((32768 * r) - (27440 * g) - (5328 * b)) asr 16);
      cnt.(ci) <- cnt.(ci) + 1
    done
  done;
  for i = 0 to (cw * ch) - 1 do
    cbp.Codec.Plane.samples.(i) <- cb_acc.(i) / cnt.(i);
    crp.Codec.Plane.samples.(i) <- cr_acc.(i) / cnt.(i)
  done;
  let pad p = Codec.Plane.pad_to_multiple p multiple in
  { Codec.Plane.y = pad yp; cb = pad cbp; cr = pad crp }

let prop_of_raster_into_matches_reference =
  QCheck2.Test.make ~count:500
    ~name:"of_raster_into matches the accumulator conversion and padding"
    QCheck2.Gen.(triple (1 -- 40) (1 -- 40) (0 -- 1_000_000))
    (fun (width, height, seed) ->
      let rng = Image.Prng.create ~seed in
      let picture () =
        Image.Raster.init ~width ~height (fun ~x:_ ~y:_ ->
            Image.Pixel.v (Image.Prng.int rng 256) (Image.Prng.int rng 256)
              (Image.Prng.int rng 256))
      in
      let same (a : Codec.Plane.ycbcr) (b : Codec.Plane.ycbcr) =
        Codec.Plane.equal a.y b.y && Codec.Plane.equal a.cb b.cb
        && Codec.Plane.equal a.cr b.cr
      in
      (* Two pictures through the same planes: the second conversion
         must overwrite every sample the first one wrote. *)
      let planes = Codec.Plane.create_ycbcr ~width ~height ~multiple:8 in
      List.for_all
        (fun img ->
          Codec.Plane.of_raster_into img planes;
          same planes (reference_planes ~multiple:8 img)
          && same (Codec.Plane.of_raster img) (reference_planes ~multiple:1 img))
        [ picture (); picture () ])

(* Copies of the plane->raster conversion and the pixel metrics as
   they were before they read and wrote [Raster.data] directly: one
   bounds-checked byte at a time, the sums through a closure. *)
let old_to_raster_cropped (p : Codec.Plane.ycbcr) ~width ~height =
  let clamp255 v = if v < 0 then 0 else if v > 255 then 255 else v in
  let img = Image.Raster.create ~width ~height in
  let set_byte i v = Bytes.set (Image.Raster.data img) i (Char.chr v) in
  let sample (q : Codec.Plane.t) x y = q.Codec.Plane.samples.((y * q.Codec.Plane.width) + x) in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      let ly = sample p.y x y and cb = sample p.cb (x / 2) (y / 2)
      and cr = sample p.cr (x / 2) (y / 2) in
      let o = 3 * ((y * width) + x) in
      set_byte o (clamp255 (ly + ((91881 * (cr - 128)) asr 16)));
      set_byte (o + 1)
        (clamp255 (ly - ((22554 * (cb - 128)) asr 16) - ((46802 * (cr - 128)) asr 16)));
      set_byte (o + 2) (clamp255 (ly + ((116130 * (cb - 128)) asr 16)))
    done
  done;
  img

let old_sum_bytes f a b =
  let byte img i = Char.code (Bytes.get (Image.Raster.data img) i) in
  let acc = ref 0 in
  for i = 0 to (3 * Image.Raster.pixel_count a) - 1 do
    acc := !acc + f (byte a i - byte b i)
  done;
  !acc

let old_mse a b =
  float_of_int (old_sum_bytes (fun d -> d * d) a b)
  /. float_of_int (3 * Image.Raster.pixel_count a)

let old_psnr a b =
  let e = old_mse a b in
  if e <= 0. then infinity else 10. *. log10 (255. *. 255. /. e)

let old_mean_absolute_error a b =
  float_of_int (old_sum_bytes abs a b) /. float_of_int (3 * Image.Raster.pixel_count a)

let old_max_absolute_error a b =
  let byte img i = Char.code (Bytes.get (Image.Raster.data img) i) in
  let m = ref 0 in
  for i = 0 to (3 * Image.Raster.pixel_count a) - 1 do
    m := max !m (abs (byte a i - byte b i))
  done;
  !m

let prop_byte_kernels_match_old_loops =
  QCheck2.Test.make ~count:500
    ~name:"to_raster_cropped, squared_error_cropped and Metrics match the old loops"
    QCheck2.Gen.(quad (1 -- 40) (1 -- 40) bool (0 -- 1_000_000))
    (fun (width, height, padded, seed) ->
      let rng = Image.Prng.create ~seed in
      let planes () =
        let p =
          Codec.Plane.create_ycbcr ~width ~height ~multiple:(if padded then 8 else 1)
        in
        List.iter
          (fun (q : Codec.Plane.t) ->
            Array.iteri
              (fun i _ -> q.Codec.Plane.samples.(i) <- Image.Prng.int rng 256)
              q.Codec.Plane.samples)
          [ p.y; p.cb; p.cr ];
        p
      in
      let a = planes () and b = planes () in
      let ra = Codec.Plane.to_raster_cropped a ~width ~height
      and rb = Codec.Plane.to_raster_cropped b ~width ~height in
      let one_byte_off =
        let r = Image.Raster.copy ra in
        let i = Image.Prng.int rng (3 * width * height) in
        let d = Image.Raster.data r in
        Bytes.set d i (Char.chr ((Char.code (Bytes.get d i) + 1 + Image.Prng.int rng 255) mod 256));
        r
      in
      let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      let metrics_match x y =
        same_float (Image.Metrics.mse x y) (old_mse x y)
        && same_float (Image.Metrics.psnr x y) (old_psnr x y)
        && same_float (Image.Metrics.mean_absolute_error x y) (old_mean_absolute_error x y)
        && Image.Metrics.max_absolute_error x y = old_max_absolute_error x y
      in
      let sse p q = Codec.Plane.squared_error_cropped p q ~width ~height in
      Image.Raster.equal ra (old_to_raster_cropped a ~width ~height)
      && Image.Raster.equal rb (old_to_raster_cropped b ~width ~height)
      && metrics_match ra (Image.Raster.copy ra)
      && metrics_match ra one_byte_off
      && old_max_absolute_error ra one_byte_off > 0
      && metrics_match ra rb
      && sse a a = 0
      && sse a b = old_sum_bytes (fun d -> d * d) ra rb
      && same_float
           (Image.Metrics.psnr_of_squared_error ~samples:(3 * width * height) (sse a b))
           (old_psnr ra rb))

let test_plane_ycbcr_gray_roundtrip () =
  (* Grays survive the colour transform exactly. *)
  let img = Image.Raster.init ~width:8 ~height:8 (fun ~x ~y ->
      Image.Pixel.gray ((x + (y * 8)) * 4 mod 256))
  in
  let back = Codec.Plane.to_raster (Codec.Plane.of_raster img) in
  check bool "gray image round-trips" true
    (Image.Metrics.max_absolute_error img back <= 1)

let test_plane_ycbcr_color_bounded () =
  let rng = Image.Prng.create ~seed:77 in
  let img = Image.Raster.init ~width:16 ~height:16 (fun ~x:_ ~y:_ ->
      Image.Pixel.v (Image.Prng.int rng 256) (Image.Prng.int rng 256)
        (Image.Prng.int rng 256))
  in
  let back = Codec.Plane.to_raster (Codec.Plane.of_raster img) in
  (* Chroma subsampling loses high-frequency colour, so compare
     luminance, which is carried at full resolution. *)
  let y_err =
    Codec.Plane.mean_absolute_difference
      (Codec.Plane.of_raster img).Codec.Plane.y
      (Codec.Plane.of_raster back).Codec.Plane.y
  in
  check bool "luma nearly preserved" true (y_err < 3.)

(* --- Motion ----------------------------------------------------------- *)

let shifted_plane ~dx ~dy src =
  let out = Codec.Plane.create ~width:src.Codec.Plane.width ~height:src.Codec.Plane.height in
  for y = 0 to out.Codec.Plane.height - 1 do
    for x = 0 to out.Codec.Plane.width - 1 do
      Codec.Plane.set out ~x ~y (Codec.Plane.get src ~x:(x - dx) ~y:(y - dy))
    done
  done;
  out

let textured_plane seed =
  let rng = Image.Prng.create ~seed in
  let p = Codec.Plane.create ~width:32 ~height:32 in
  for y = 0 to 31 do
    for x = 0 to 31 do
      Codec.Plane.set p ~x ~y (Image.Prng.int rng 256)
    done
  done;
  p

let test_motion_finds_exact_shift () =
  let reference = textured_plane 5 in
  (* Content moves right by 3 and up by 2: current(x,y) =
     reference(x-3, y+2). The prediction vector points back into the
     reference, so the search must return (-3, +2). *)
  let current = shifted_plane ~dx:3 ~dy:(-2) reference in
  let v, sad = Codec.Motion.search ~range:4 ~current ~reference ~x:8 ~y:8 () in
  check int "dx" (-3) v.Codec.Motion.dx;
  check int "dy" 2 v.Codec.Motion.dy;
  check int "sad is zero" 0 sad

let test_motion_zero_preferred_on_tie () =
  let reference = Codec.Plane.create ~width:16 ~height:16 in
  let current = Codec.Plane.create ~width:16 ~height:16 in
  let v, sad = Codec.Motion.search ~range:3 ~current ~reference ~x:4 ~y:4 () in
  check int "zero dx" 0 v.Codec.Motion.dx;
  check int "zero dy" 0 v.Codec.Motion.dy;
  check int "flat sad" 0 sad

let predict p ~x ~y (v : Codec.Motion.vector) =
  let out = Array.make 64 0. in
  Codec.Motion.predict (Codec.Motion.window ~range:0) ~reference:p ~x ~y ~hx:v.dx
    ~hy:v.dy out;
  out

let test_motion_halfpel_integer_positions_exact () =
  (* At even half-pel coordinates the interpolated prediction equals
     the integer-pel block. *)
  let p = textured_plane 11 in
  let v_int = { Codec.Motion.dx = 2; dy = -1 } in
  let v_half = Codec.Motion.to_halfpel v_int in
  check bool "same block" true
    (Codec.Motion.extract_block p ~x:10 ~y:7 = predict p ~x:8 ~y:8 v_half)

let test_motion_halfpel_interpolates () =
  (* A horizontal ramp: the half-pel sample between columns is their
     rounded average. *)
  let p = Codec.Plane.create ~width:16 ~height:16 in
  for y = 0 to 15 do
    for x = 0 to 15 do
      Codec.Plane.set p ~x ~y (x * 10)
    done
  done;
  let block = predict p ~x:4 ~y:4 { Codec.Motion.dx = 1; dy = 0 } in
  (* Sample at (4.5, 4): average of 40 and 50. *)
  check (Alcotest.float 1e-9) "bilinear midpoint" 45. block.(0)

let test_motion_halfpel_refinement_wins_on_subpel_shift () =
  (* Content shifted by half a pixel: the refined vector must beat the
     integer-pel one on SAD. *)
  let reference = Codec.Plane.create ~width:32 ~height:32 in
  for y = 0 to 31 do
    for x = 0 to 31 do
      Codec.Plane.set reference ~x ~y (((x * 13) + (y * 7)) mod 256)
    done
  done;
  let current = Codec.Plane.create ~width:32 ~height:32 in
  for y = 0 to 31 do
    for x = 0 to 31 do
      (* current(x) = average of reference(x) and reference(x+1): a
         half-pel shift left. *)
      let a = Codec.Plane.get reference ~x ~y and b = Codec.Plane.get reference ~x:(x + 1) ~y in
      Codec.Plane.set current ~x ~y ((a + b + 1) / 2)
    done
  done;
  let integer_vec, integer_sad =
    Codec.Motion.search ~range:2 ~current ~reference ~x:8 ~y:8 ()
  in
  let refined, refined_sad =
    Codec.Motion.refine_halfpel ~current ~reference ~x:8 ~y:8 integer_vec
  in
  check bool "refinement strictly better" true (refined_sad < integer_sad);
  check int "finds the half-pel shift" 1 refined.Codec.Motion.dx

let test_motion_chroma_vector () =
  let v = { Codec.Motion.dx = 9; dy = -9 } in
  let c = Codec.Motion.chroma_vector v in
  check int "dx floors" 2 c.Codec.Motion.dx;
  check int "dy floors" (-3) c.Codec.Motion.dy

let test_motion_extract_store_roundtrip () =
  let p = textured_plane 9 in
  let block = Codec.Motion.extract_block p ~x:8 ~y:16 in
  let q = Codec.Plane.create ~width:32 ~height:32 in
  Codec.Motion.store_block q ~x:8 ~y:16 block;
  let block' = Codec.Motion.extract_block q ~x:8 ~y:16 in
  check bool "block preserved" true (block = block')

(* The window kernels read without bounds checks; a vector beyond the
   window's reach must raise, not read past it. *)
let test_motion_window_reach () =
  let p = Codec.Plane.create ~width:16 ~height:16 in
  let w = Codec.Motion.window ~range:2 in
  Codec.Motion.fill w ~current:p ~reference:p ~x:0 ~y:0 ~centre:Codec.Motion.zero;
  let outside = Invalid_argument "Motion: vector outside the search window" in
  let v dx dy = { Codec.Motion.dx; dy } in
  check int "edge of reach" 0 (Codec.Motion.window_sad w (v 2 (-2)));
  Alcotest.check_raises "integer past range" outside (fun () ->
      ignore (Codec.Motion.window_sad w (v 3 0)));
  Alcotest.check_raises "integer wrapping" outside (fun () ->
      ignore (Codec.Motion.window_sad w (v min_int 0)));
  Alcotest.check_raises "refinement centre past range" outside (fun () ->
      ignore (Codec.Motion.window_refine w (v 0 (-3))));
  let out = Array.make 64 0. in
  Codec.Motion.window_predicted_halfpel_into w (v 5 (-5)) out;
  Alcotest.check_raises "half-pel past reach" outside (fun () ->
      Codec.Motion.window_predicted_halfpel_into w (v 6 0) out)

(* The motion kernels index plane samples directly when a block's
   footprint is inside the plane. The references below are the
   per-sample, edge-clamped definitions; the properties check that the
   kernels agree with them everywhere, edges and off-plane vectors
   included. *)

module Clamped = struct
  let get = Codec.Plane.get

  let sad cur refp ~x ~y (v : Codec.Motion.vector) =
    let acc = ref 0 in
    for by = 0 to 7 do
      for bx = 0 to 7 do
        acc :=
          !acc
          + abs
              (get cur ~x:(x + bx) ~y:(y + by)
              - get refp ~x:(x + bx + v.dx) ~y:(y + by + v.dy))
      done
    done;
    !acc

  let search ~range ~current ~reference ~x ~y =
    let norm (v : Codec.Motion.vector) = abs v.dx + abs v.dy in
    let best = ref Codec.Motion.zero
    and best_sad = ref (sad current reference ~x ~y Codec.Motion.zero) in
    for dy = -range to range do
      for dx = -range to range do
        let v = { Codec.Motion.dx; dy } in
        let s = sad current reference ~x ~y v in
        if s < !best_sad || (s = !best_sad && norm v < norm !best) then begin
          best := v;
          best_sad := s
        end
      done
    done;
    (!best, !best_sad)

  let halfpel_sample p ~hx ~hy =
    let ix = hx asr 1 and iy = hy asr 1 in
    let s dx dy = get p ~x:(ix + dx) ~y:(iy + dy) in
    match (hx land 1, hy land 1) with
    | 0, 0 -> s 0 0
    | 1, 0 -> (s 0 0 + s 1 0 + 1) / 2
    | 0, 1 -> (s 0 0 + s 0 1 + 1) / 2
    | _ -> (s 0 0 + s 1 0 + s 0 1 + s 1 1 + 2) / 4

  let predicted_halfpel p ~x ~y (v : Codec.Motion.vector) =
    Array.init 64 (fun i ->
        float_of_int
          (halfpel_sample p
             ~hx:((2 * (x + (i mod 8))) + v.dx)
             ~hy:((2 * (y + (i / 8))) + v.dy)))

  let sad_halfpel cur refp ~x ~y v =
    let pred = predicted_halfpel refp ~x ~y v in
    let acc = ref 0 in
    for i = 0 to 63 do
      acc :=
        !acc
        + abs (get cur ~x:(x + (i mod 8)) ~y:(y + (i / 8)) - int_of_float pred.(i))
    done;
    !acc

  let refine_halfpel ~current ~reference ~x ~y integer =
    let centre = Codec.Motion.to_halfpel integer in
    let best = ref centre
    and best_sad = ref (sad_halfpel current reference ~x ~y centre) in
    for dy = -1 to 1 do
      for dx = -1 to 1 do
        if dx <> 0 || dy <> 0 then begin
          let v = { Codec.Motion.dx = centre.dx + dx; dy = centre.dy + dy } in
          let s = sad_halfpel current reference ~x ~y v in
          if s < !best_sad then begin
            best := v;
            best_sad := s
          end
        end
      done
    done;
    (!best, !best_sad)

  let predicted p ~x ~y (v : Codec.Motion.vector) =
    Array.init 64 (fun i ->
        float_of_int (get p ~x:(x + (i mod 8) + v.dx) ~y:(y + (i / 8) + v.dy)))

  let store p ~x ~y samples =
    for i = 0 to 63 do
      let px = x + (i mod 8) and py = y + (i / 8) in
      if px >= 0 && px < p.Codec.Plane.width && py >= 0 && py < p.Codec.Plane.height
      then Codec.Plane.set p ~x:px ~y:py (int_of_float (Float.round samples.(i)))
    done
end

(* A random plane (1..40 on a side, samples slightly past [0, 255] as
   residuals can be), a block position that may overhang any edge, and
   a vector that is either small or larger than the plane. *)
let kernel_case =
  QCheck2.Gen.(
    let* width = 1 -- 40 and* height = 1 -- 40 and* seed = 0 -- 100_000 in
    let* x = -4 -- (width + 4) and* y = -4 -- (height + 4) in
    let span = (2 * max width height) + 12 in
    let* dx = oneof [ -3 -- 3; -span -- span ]
    and* dy = oneof [ -3 -- 3; -span -- span ]
    and* range = 0 -- 15 in
    return (width, height, seed, x, y, { Codec.Motion.dx; dy }, range))

let random_plane ~width ~height rng =
  let p = Codec.Plane.create ~width ~height in
  Array.iteri
    (fun i _ -> p.Codec.Plane.samples.(i) <- Image.Prng.int rng 296 - 20)
    p.Codec.Plane.samples;
  p

(* The searches and [predict] must equal the clamped definitions for
   any block position and vector; block extract and store must equal
   them for a block inside the plane and raise on one that overhangs. *)
let prop_motion_kernels_match_clamped =
  QCheck2.Test.make ~count:1000
    ~name:"motion kernels equal the edge-clamped definitions"
    kernel_case
    (fun (width, height, seed, x, y, v, range) ->
      let rng = Image.Prng.create ~seed in
      let current = random_plane ~width ~height rng in
      let reference = random_plane ~width ~height rng in
      let integer = { Codec.Motion.dx = v.dx / 2; dy = v.dy / 2 } in
      let stored = Codec.Plane.copy reference
      and stored' = Codec.Plane.copy reference in
      let samples = Array.init 64 (fun _ -> Image.Prng.float rng 300. -. 20.) in
      let chroma = Codec.Motion.chroma_vector v in
      let extract_store_ok =
        if x >= 0 && y >= 0 && x + 8 <= width && y + 8 <= height then begin
          Codec.Motion.store_block stored ~x ~y samples;
          Clamped.store stored' ~x ~y samples;
          Codec.Motion.extract_block reference ~x ~y
          = Clamped.predicted reference ~x ~y Codec.Motion.zero
          && Codec.Plane.equal stored stored'
        end
        else
          let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
          raises (fun () -> ignore (Codec.Motion.extract_block reference ~x ~y))
          && raises (fun () -> Codec.Motion.store_block stored ~x ~y samples)
          && Codec.Plane.equal stored reference
      in
      Codec.Motion.sad current reference ~x ~y v = Clamped.sad current reference ~x ~y v
      && Codec.Motion.search ~range ~current ~reference ~x ~y ()
         = Clamped.search ~range ~current ~reference ~x ~y
      && Codec.Motion.sad_halfpel current reference ~x ~y v
         = Clamped.sad_halfpel current reference ~x ~y v
      && Codec.Motion.refine_halfpel ~current ~reference ~x ~y integer
         = Clamped.refine_halfpel ~current ~reference ~x ~y integer
      && predict reference ~x ~y v = Clamped.predicted_halfpel reference ~x ~y v
      && predict reference ~x ~y (Codec.Motion.to_halfpel chroma)
         = Clamped.predicted reference ~x ~y chroma
      && extract_store_ok)

(* Hand-built P frames whose vectors the encoder would never choose:
   far outside the plane, and half-pel taps that reach one sample past
   the right and bottom edges. Every residual is zero, so each decoded
   block is its prediction, which must be the edge-clamped one. *)
let test_hostile_vectors () =
  List.iter
    (fun (width, height, shift) ->
      let info =
        {
          Codec.Decoder.info_width = width;
          info_height = height;
          info_fps = 8.;
          info_frame_count = 2;
          info_params = Codec.Stream.default_params;
          header_bytes = 0;
        }
      in
      let rng = Image.Prng.create ~seed:(width + height) in
      let reference = Codec.Decoder.reference_planes info in
      List.iter
        (fun (p : Codec.Plane.t) ->
          Array.iteri
            (fun i _ -> p.Codec.Plane.samples.(i) <- Image.Prng.int rng 256)
            p.Codec.Plane.samples)
        [ reference.Codec.Plane.y; reference.Codec.Plane.cb; reference.Codec.Plane.cr ];
      let luma = reference.Codec.Plane.y in
      let lw = luma.Codec.Plane.width and lh = luma.Codec.Plane.height in
      let bw = lw / 8 and bh = lh / 8 in
      (* Per block: the half-pel vector whose +1 taps land one sample
         past the right and bottom edges, the far vectors, and small
         half-pel vectors in every direction. *)
      let vector i ~x ~y =
        let edge = ((2 * (lw - 8 - x)) + 1, (2 * (lh - 8 - y)) + 1) in
        let far = 4000 in
        let table =
          [|
            edge; (far, far); (-far, -far); (far, -far); (-far, far);
            (2 * (lw - 8 - x) + 1, 0); (0, 2 * (lh - 8 - y) + 1);
            (1, 1); (-1, -1); (3, -3); (-far, 1); (1, far);
          |]
        in
        let dx, dy = table.((i + shift) mod Array.length table) in
        { Codec.Motion.dx; dy }
      in
      let vectors =
        Array.init (bw * bh) (fun i -> vector i ~x:(i mod bw * 8) ~y:(i / bw * 8))
      in
      let zeros = Array.make 64 0 in
      let w = Codec.Bitio.Writer.create () in
      Codec.Bitio.Writer.put_byte_aligned w (Char.code 'P');
      Codec.Bitio.Writer.put_byte_aligned w 8;
      Array.iter
        (fun (v : Codec.Motion.vector) ->
          Codec.Golomb.write_ue w 0;
          Codec.Golomb.write_se w v.dx;
          Codec.Golomb.write_se w v.dy;
          Codec.Coeff.write_block w zeros)
        vectors;
      let chroma_blocks =
        let c = reference.Codec.Plane.cb in
        c.Codec.Plane.width / 8 * (c.Codec.Plane.height / 8)
      in
      for _ = 1 to 2 * chroma_blocks do
        Codec.Coeff.write_block w zeros
      done;
      let into = Codec.Decoder.reference_planes info in
      (match
         Codec.Decoder.decode_frame_into ~scratch:(Codec.Block_codec.scratch ()) ~into
           ~info ~reference:(Some reference)
           (Codec.Bitio.Writer.contents w)
       with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%dx%d shift %d: %s" width height shift msg);
      let block (p : Codec.Plane.t) ~x ~y =
        Array.init 64 (fun i ->
            float_of_int (Codec.Plane.get p ~x:(x + (i mod 8)) ~y:(y + (i / 8))))
      in
      Array.iteri
        (fun i v ->
          let x = i mod bw * 8 and y = i / bw * 8 in
          check bool
            (Printf.sprintf "%dx%d shift %d luma block %d" width height shift i)
            true
            (block into.Codec.Plane.y ~x ~y
            = Clamped.predicted_halfpel luma ~x ~y v))
        vectors;
      List.iter
        (fun (name, (p : Codec.Plane.t), (r : Codec.Plane.t)) ->
          for by = 0 to (p.Codec.Plane.height / 8) - 1 do
            for bx = 0 to (p.Codec.Plane.width / 8) - 1 do
              let lx = min (2 * bx) (bw - 1) and ly = min (2 * by) (bh - 1) in
              let v = Codec.Motion.chroma_vector vectors.((ly * bw) + lx) in
              let x = bx * 8 and y = by * 8 in
              check bool
                (Printf.sprintf "%dx%d shift %d %s block (%d, %d)" width height shift
                   name bx by)
                true
                (block p ~x ~y = Clamped.predicted r ~x ~y v)
            done
          done)
        [
          ("cb", into.Codec.Plane.cb, reference.Codec.Plane.cb);
          ("cr", into.Codec.Plane.cr, reference.Codec.Plane.cr);
        ])
    [ (16, 12, 0); (16, 12, 4); (16, 12, 8); (32, 24, 0) ]

(* --- Encoder / Decoder ------------------------------------------------ *)

let test_clip ?(width = 48) ?(height = 32) ?(frames = 8) ?(seed = 21) () =
  let profile =
    {
      Video.Profile.name = "codec-test";
      seed;
      scenes =
        [
          Video.Profile.scene ~seconds:(float_of_int frames /. 8.)
            ~subjects:
              [
                {
                  Video.Profile.level = 220;
                  size = 150;
                  speed = 10.;
                  vertical_phase = 0.5;
                };
              ]
            ~noise_sigma:1.5
            (Video.Profile.Vertical { top = 40; bottom = 90 });
        ];
    }
  in
  Video.Clip_gen.render ~width ~height ~fps:8. profile

let test_codec_roundtrip_psnr () =
  let clip = test_clip () in
  let encoded = Codec.Encoder.encode_clip clip in
  let decoded = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
  check int "frame count" clip.Video.Clip.frame_count
    (Array.length decoded.Codec.Decoder.frames);
  check int "width" clip.Video.Clip.width decoded.Codec.Decoder.width;
  Array.iteri
    (fun i frame ->
      let psnr = Image.Metrics.psnr (clip.Video.Clip.render i) frame in
      check bool (Printf.sprintf "frame %d psnr %.1f > 27dB" i psnr) true (psnr > 27.))
    decoded.Codec.Decoder.frames

let test_codec_p_frames_smaller () =
  let clip = test_clip ~frames:8 () in
  let encoded = Codec.Encoder.encode_clip ~params:{ Codec.Stream.default_params with gop = 8 } clip in
  check bool "first frame is I" true
    (encoded.Codec.Encoder.frame_types.(0) = Codec.Stream.I_frame);
  check bool "second frame is P" true
    (encoded.Codec.Encoder.frame_types.(1) = Codec.Stream.P_frame);
  (* Slow panning content: P frames should cost well under an I frame. *)
  check bool "P smaller than I" true
    (encoded.Codec.Encoder.frame_sizes_bits.(1)
     < encoded.Codec.Encoder.frame_sizes_bits.(0))

let test_codec_gop_structure () =
  let clip = test_clip ~frames:8 () in
  let encoded =
    Codec.Encoder.encode_clip
      ~params:{ Codec.Stream.default_params with gop = 3 } clip
  in
  Array.iteri
    (fun i t ->
      let expected = if i mod 3 = 0 then Codec.Stream.I_frame else Codec.Stream.P_frame in
      check bool (Printf.sprintf "frame %d type" i) true (t = expected))
    encoded.Codec.Encoder.frame_types

let test_codec_higher_qp_smaller_stream () =
  let clip = test_clip () in
  let size qp =
    Codec.Encoder.total_bytes
      (Codec.Encoder.encode_clip ~params:{ Codec.Stream.default_params with qp } clip)
  in
  check bool "qp 20 smaller than qp 4" true (size 20 < size 4)

let test_codec_higher_qp_lower_quality () =
  let clip = test_clip () in
  let psnr qp =
    let e = Codec.Encoder.encode_clip ~params:{ Codec.Stream.default_params with qp } clip in
    let d = Codec.Decoder.decode_exn e.Codec.Encoder.data in
    Image.Metrics.psnr (clip.Video.Clip.render 0) d.Codec.Decoder.frames.(0)
  in
  check bool "qp 2 beats qp 25" true (psnr 2 > psnr 25)

let test_codec_odd_dimensions () =
  (* Dimensions not divisible by 8 or 16 exercise padding and chroma
     geometry. *)
  let clip = test_clip ~width:37 ~height:21 ~frames:4 () in
  let encoded = Codec.Encoder.encode_clip clip in
  let decoded = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
  check int "width preserved" 37 decoded.Codec.Decoder.width;
  check int "height preserved" 21 decoded.Codec.Decoder.height;
  Array.iteri
    (fun i frame ->
      let psnr = Image.Metrics.psnr (clip.Video.Clip.render i) frame in
      check bool (Printf.sprintf "frame %d decodes" i) true (psnr > 28.))
    decoded.Codec.Decoder.frames

let test_codec_single_frame () =
  let clip = test_clip ~frames:1 () in
  let encoded = Codec.Encoder.encode_clip clip in
  let decoded = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
  check int "one frame" 1 (Array.length decoded.Codec.Decoder.frames)

let test_codec_rejects_bad_params () =
  let clip = test_clip ~frames:1 () in
  Alcotest.check_raises "bad qp" (Invalid_argument "Encoder: qp out of [1, 31]")
    (fun () ->
      ignore
        (Codec.Encoder.encode_clip
           ~params:{ Codec.Stream.default_params with qp = 0 } clip))

(* The encoder converts every frame into planes sized from the clip's
   dimensions, so a frame of another size is refused, not coded into
   a stream whose header disagrees with it. *)
let test_codec_rejects_mismatched_frame () =
  let small = Image.Raster.create ~width:8 ~height:8 in
  let clip =
    Video.Clip.make ~name:"mismatch" ~width:16 ~height:16 ~fps:12. ~frame_count:1
      (fun _ -> small)
  in
  Alcotest.check_raises "frame smaller than the clip"
    (Invalid_argument "Encoder: frame dimensions differ from the clip's") (fun () ->
      ignore (Codec.Encoder.encode_clip clip))

let test_decoder_rejects_garbage () =
  check bool "garbage rejected" true
    (Result.is_error (Codec.Decoder.decode "not a stream at all"));
  check bool "empty rejected" true (Result.is_error (Codec.Decoder.decode ""))

let test_decoder_rejects_truncation () =
  let clip = test_clip ~frames:4 () in
  let encoded = Codec.Encoder.encode_clip clip in
  let data = encoded.Codec.Encoder.data in
  let truncated = String.sub data 0 (String.length data / 2) in
  check bool "truncated rejected" true (Result.is_error (Codec.Decoder.decode truncated))

(* A bare header (no frame data) claiming [frame_count] frames. *)
let header_only ~frame_count =
  let w = Codec.Bitio.Writer.create () in
  String.iter
    (fun c -> Codec.Bitio.Writer.put_byte_aligned w (Char.code c))
    Codec.Stream.magic;
  Codec.Bitio.Writer.put_byte_aligned w Codec.Stream.version;
  List.iter (Codec.Golomb.write_ue w) [ 8; 8; 12_000; frame_count; 12; 8; 4 ];
  Codec.Bitio.Writer.contents w

let test_decoder_rejects_implausible_count () =
  (* Such counts once sized the frame array before any frame was read:
     4e9 raised Out_of_memory, 1e8 allocated ~800 MB first. *)
  List.iter
    (fun (frame_count, bytes) ->
      let data = header_only ~frame_count in
      check int (Printf.sprintf "%d-frame header bytes" frame_count) bytes
        (String.length data);
      match Codec.Decoder.decode data with
      | Error msg -> check Alcotest.string "rejected" "implausible frame count" msg
      | Ok _ -> Alcotest.fail "decoded an empty stream claiming frames")
    [ (4_000_000_000, 21); (100_000_000, 20) ];
  (* A count the payload can hold still decodes. *)
  let e = Codec.Encoder.encode_clip (test_clip ~frames:2 ()) in
  check int "real stream" 2
    (Array.length (Codec.Decoder.decode_exn e.Codec.Encoder.data).Codec.Decoder.frames)

(* A frame whose first block count is the wrapping 62-zero code, then
   ue(0) for the other two blocks of an 8x8 frame. *)
let test_decoder_rejects_wrapping_block_count () =
  let info =
    match Codec.Decoder.parse_header (header_only ~frame_count:1) with
    | Ok info -> info
    | Error msg -> Alcotest.fail msg
  in
  let w = Codec.Bitio.Writer.create () in
  Codec.Bitio.Writer.put_byte_aligned w (Char.code 'I');
  Codec.Bitio.Writer.put_byte_aligned w 8;
  let code = Codec.Bitio.Reader.of_string (Codec.Bitio.Writer.contents (wrapping_ue ())) in
  for _ = 1 to 125 do
    Codec.Bitio.Writer.put_bit w (Codec.Bitio.Reader.get_bit code)
  done;
  Codec.Bitio.Writer.put_bits w ~value:3 ~bits:2;
  check bool "Error" true
    (Result.is_error
       (Codec.Decoder.decode_frame_into ~scratch:(Codec.Block_codec.scratch ())
          ~into:(Codec.Decoder.reference_planes info) ~info ~reference:None
          (Codec.Bitio.Writer.contents w)))

let test_decoder_into_checks_geometry () =
  let encoded = Codec.Encoder.encode_clip (test_clip ~frames:1 ()) in
  let info =
    match Codec.Decoder.parse_header encoded.Codec.Encoder.data with
    | Ok info -> info
    | Error msg -> Alcotest.fail msg
  in
  let small = Codec.Plane.of_raster (Image.Raster.create ~width:8 ~height:8) in
  Alcotest.check_raises "planes of another size"
    (Invalid_argument
       "Decoder.decode_frame_into: planes are not the stream's padded geometry")
    (fun () ->
      ignore
        (Codec.Decoder.decode_frame_into ~scratch:(Codec.Block_codec.scratch ())
           ~into:small ~info ~reference:None ""))

let test_decoder_mutation_fuzz () =
  (* Flipping arbitrary bytes in a valid stream must never escape as an
     exception: the decoder returns Ok (the damage landed in
     recoverable coefficient data) or Error, nothing else. *)
  let clip = test_clip ~frames:4 () in
  let encoded = Codec.Encoder.encode_clip clip in
  let data = encoded.Codec.Encoder.data in
  let rng = Image.Prng.create ~seed:2024 in
  for _ = 1 to 200 do
    let mutated = Bytes.of_string data in
    (* One to three byte flips per trial. *)
    for _ = 0 to Image.Prng.int rng 3 do
      let pos = Image.Prng.int rng (Bytes.length mutated) in
      Bytes.set mutated pos (Char.chr (Image.Prng.int rng 256))
    done;
    match Codec.Decoder.decode (Bytes.to_string mutated) with
    | Ok _ | Error _ -> ()
  done;
  check bool "no escaped exceptions over 200 mutations" true true

let test_decoder_rejects_bad_magic () =
  let clip = test_clip ~frames:1 () in
  let encoded = Codec.Encoder.encode_clip clip in
  let data = Bytes.of_string encoded.Codec.Encoder.data in
  Bytes.set data 0 'X';
  (match Codec.Decoder.decode (Bytes.to_string data) with
  | Error msg -> check bool "mentions magic" true (msg = "bad magic")
  | Ok _ -> Alcotest.fail "bad magic accepted")

let test_codec_static_clip_compresses_well () =
  (* A fully static clip with smooth structure: the I frame carries the
     content, every P frame should collapse to skip-like blocks because
     prediction from the reconstructed reference is near-exact. *)
  let frame = Image.Raster.create ~width:32 ~height:32 in
  Image.Draw.fill_vertical_gradient frame ~top:(Image.Pixel.gray 30)
    ~bottom:(Image.Pixel.gray 200);
  Image.Draw.disc frame ~cx:16 ~cy:16 ~radius:7 (Image.Pixel.gray 240);
  let clip = Video.Clip.of_frames ~name:"static" ~fps:8. (Array.make 8 frame) in
  let encoded = Codec.Encoder.encode_clip ~params:{ Codec.Stream.default_params with gop = 8 } clip in
  let i_size = encoded.Codec.Encoder.frame_sizes_bits.(0) in
  for i = 1 to 7 do
    check bool (Printf.sprintf "P frame %d tiny" i) true
      (encoded.Codec.Encoder.frame_sizes_bits.(i) * 4 < i_size)
  done

(* --- Deblock -------------------------------------------------------------- *)

let blocky_frame () =
  (* Constant 8x8 tiles of alternating levels: maximal grid artefact. *)
  Image.Raster.init ~width:32 ~height:32 (fun ~x ~y ->
      Image.Pixel.gray (if ((x / 8) + (y / 8)) mod 2 = 0 then 100 else 112))

let test_deblock_blockiness_metric () =
  let blocky = blocky_frame () in
  let smooth = Image.Raster.create ~width:32 ~height:32 in
  Image.Draw.fill_vertical_gradient smooth ~top:(Image.Pixel.gray 60)
    ~bottom:(Image.Pixel.gray 180);
  check bool "tiles are blocky" true (Codec.Deblock.blockiness blocky > 5.);
  check bool "gradient is clean" true (Codec.Deblock.blockiness smooth < 1.)

let test_deblock_reduces_blockiness () =
  let blocky = blocky_frame () in
  let filtered = Codec.Deblock.filter blocky in
  check bool "filter reduces the metric" true
    (Codec.Deblock.blockiness filtered < Codec.Deblock.blockiness blocky)

let test_deblock_preserves_strong_edges () =
  (* A hard 100-level edge aligned to the grid is image content. *)
  let img = Image.Raster.init ~width:32 ~height:32 (fun ~x ~y ->
      ignore y;
      Image.Pixel.gray (if x < 16 then 40 else 160))
  in
  let filtered = Codec.Deblock.filter img in
  check bool "strong edge untouched" true (Image.Raster.equal img filtered)

let test_deblock_on_coarse_stream () =
  (* Decoding a coarse-quantiser stream and filtering must reduce
     blockiness without wrecking PSNR. *)
  let clip = test_clip ~frames:2 () in
  let encoded =
    Codec.Encoder.encode_clip ~params:{ Codec.Stream.default_params with qp = 28 } clip
  in
  let decoded = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
  let raw = decoded.Codec.Decoder.frames.(0) in
  let filtered = Codec.Deblock.filter raw in
  check bool "blockiness reduced" true
    (Codec.Deblock.blockiness filtered <= Codec.Deblock.blockiness raw);
  let original = clip.Video.Clip.render 0 in
  check bool "psnr within 1.5 dB" true
    (Image.Metrics.psnr original filtered > Image.Metrics.psnr original raw -. 1.5)

(* --- Gop planner --------------------------------------------------------- *)

let test_gop_planner_anchors () =
  let t = Codec.Gop_planner.plan ~max_interval:100 ~scene_starts:[ 10; 25 ] ~frame_count:40 in
  Alcotest.(check (list int)) "anchors" [ 0; 10; 25 ] (Codec.Gop_planner.positions t);
  check bool "predicate true at anchor" true (Codec.Gop_planner.i_frame_at t 10);
  check bool "predicate false elsewhere" false (Codec.Gop_planner.i_frame_at t 11)

let test_gop_planner_refresh_inside_long_scene () =
  let t = Codec.Gop_planner.plan ~max_interval:10 ~scene_starts:[] ~frame_count:35 in
  Alcotest.(check (list int)) "periodic refreshes" [ 0; 10; 20; 30 ]
    (Codec.Gop_planner.positions t);
  (* No gap between consecutive marks (or the end) exceeds the interval. *)
  let rec gaps = function
    | a :: (b :: _ as rest) ->
      check bool "gap bounded" true (b - a <= 10);
      gaps rest
    | [ last ] -> check bool "tail bounded" true (35 - last <= 10)
    | [] -> ()
  in
  gaps (Codec.Gop_planner.positions t)

let test_gop_planner_validation () =
  Alcotest.check_raises "bad start"
    (Invalid_argument "Gop_planner.plan: scene start out of range") (fun () ->
      ignore (Codec.Gop_planner.plan ~max_interval:5 ~scene_starts:[ 50 ] ~frame_count:10))

let test_encoder_custom_i_frames () =
  let clip = test_clip ~frames:8 () in
  let encoded =
    Codec.Encoder.encode_clip
      ~params:{ Codec.Stream.default_params with gop = 100 }
      ~i_frame_at:(fun i -> i = 0 || i = 5)
      clip
  in
  Array.iteri
    (fun i t ->
      let expected = if i = 0 || i = 5 then Codec.Stream.I_frame else Codec.Stream.P_frame in
      check bool (Printf.sprintf "frame %d type" i) true (t = expected))
    encoded.Codec.Encoder.frame_types;
  (* The stream still decodes losslessly at the container level. *)
  let decoded = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
  check int "decodes fully" 8 (Array.length decoded.Codec.Decoder.frames)

(* --- Per-frame qp ---------------------------------------------------------- *)

(* Every frame carries its own qp byte, right after its marker byte at
   the frame's aligned start; the encoder writes the header's qp into
   each, so patch one to get a stream whose frames differ in qp. *)
let test_per_frame_qp_byte () =
  let encoded =
    Codec.Encoder.encode_clip
      ~params:{ Codec.Stream.default_params with gop = 1 }
      (test_clip ~frames:4 ())
  in
  let data = encoded.Codec.Encoder.data in
  let info =
    match Codec.Decoder.parse_header data with
    | Ok info -> info
    | Error msg -> Alcotest.fail msg
  in
  let patched = 2 in
  let qp_at =
    1 + info.Codec.Decoder.header_bytes
    + Array.fold_left ( + ) 0
        (Array.map
           (fun bits -> (bits + 7) / 8)
           (Array.sub encoded.Codec.Encoder.frame_sizes_bits 0 patched))
  in
  check int "marker before the qp byte" (Char.code 'I') (Char.code data.[qp_at - 1]);
  check int "header qp in every frame" Codec.Stream.default_params.qp (Char.code data.[qp_at]);
  let with_qp qp =
    let b = Bytes.of_string data in
    Bytes.set b qp_at (Char.chr qp);
    Codec.Decoder.decode (Bytes.to_string b)
  in
  let original = Codec.Decoder.decode_exn data in
  (match with_qp 24 with
  | Error msg -> Alcotest.fail msg
  | Ok coarser ->
    Array.iteri
      (fun i frame ->
        check bool (Printf.sprintf "frame %d changed iff patched" i) (i = patched)
          (not (Image.Raster.equal frame original.Codec.Decoder.frames.(i))))
      coarser.Codec.Decoder.frames);
  List.iter
    (fun qp ->
      check
        Alcotest.(result reject string)
        (Printf.sprintf "qp %d" qp) (Error "bad frame qp") (with_qp qp))
    [ 0; 32 ]

(* --- Golden fingerprint -------------------------------------------------- *)

(* One MD5 per frame size over the bitstream and every decoded frame of
   the ten paper workloads, swept over search range, quantiser and GOP
   shape (all-intra vs one I-frame then P frames). The digests were
   taken before the kernels were rewritten for speed; any change to a
   bit of output, in either direction of the codec, moves them. *)

let golden_sizes = [ (96, 72); (50, 38); (33, 17) ]

let golden_digest ~width ~height =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (profile : Video.Profile.t) ->
      let full = Video.Clip_gen.render ~width ~height ~fps:12. profile in
      (* Every other frame, so consecutive frames carry real motion. *)
      let clip =
        Video.Clip.make ~name:full.Video.Clip.name ~width ~height ~fps:12.
          ~frame_count:4 (fun i -> full.Video.Clip.render (2 * i))
      in
      List.iter
        (fun gop ->
          List.iter
            (fun search_range ->
              List.iter
                (fun qp ->
                  let e =
                    Codec.Encoder.encode_clip
                      ~params:{ Codec.Stream.qp; gop; search_range }
                      clip
                  in
                  Buffer.add_string buf e.Codec.Encoder.data;
                  let d = Codec.Decoder.decode_exn e.Codec.Encoder.data in
                  Array.iter
                    (Image.Raster.iter (fun ~x:_ ~y:_ (p : Image.Pixel.t) ->
                         Buffer.add_char buf (Char.chr p.Image.Pixel.r);
                         Buffer.add_char buf (Char.chr p.Image.Pixel.g);
                         Buffer.add_char buf (Char.chr p.Image.Pixel.b)))
                    d.Codec.Decoder.frames)
                [ 1; 8; 31 ])
            [ 0; 4; 7 ])
        [ 1; 12 ])
    Video.Workloads.all;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_digests =
  [
    ((96, 72), "6be6e4eb74cd44702b88bb251dcceee5");
    ((50, 38), "8132ed0d96aa47dc215b15a315e0c514");
    ((33, 17), "ef480b41fd523973acedd99e4fadfd2d");
  ]

let test_golden_fingerprint () =
  List.iter
    (fun ((width, height) as size) ->
      check Alcotest.string
        (Printf.sprintf "%dx%d digest" width height)
        (List.assoc size golden_digests)
        (golden_digest ~width ~height))
    golden_sizes

(* The motion search reads a window of the reference around each
   block, (8 + 2 (range + 1)) samples on a side. These pins sit at its
   boundaries: the smallest and largest useful ranges at 96x72, and
   planes narrower than the window at every range, where each fill
   clamps on both sides. One MD5 per case over the bitstream and the
   decoded frames of the ten paper workloads, one I-frame then P
   frames. Taken before the search read windows. *)

let window_digest ~width ~height ~search_range =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (profile : Video.Profile.t) ->
      let full = Video.Clip_gen.render ~width ~height ~fps:12. profile in
      let clip =
        Video.Clip.make ~name:full.Video.Clip.name ~width ~height ~fps:12.
          ~frame_count:4 (fun i -> full.Video.Clip.render (2 * i))
      in
      List.iter
        (fun qp ->
          let e =
            Codec.Encoder.encode_clip
              ~params:{ Codec.Stream.qp; gop = 12; search_range }
              clip
          in
          Buffer.add_string buf e.Codec.Encoder.data;
          let d = Codec.Decoder.decode_exn e.Codec.Encoder.data in
          Array.iter
            (fun f -> Buffer.add_bytes buf (Image.Raster.data f))
            d.Codec.Decoder.frames)
        [ 4; 16 ])
    Video.Workloads.all;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let window_digests =
  [
    ((96, 72, 1), "2b894698a73de4ee816098a50bbebd7f");
    ((96, 72, 15), "6c042786ec63e6eff8b8ed10edc332e8");
    ((8, 8, 0), "908a15eb1246d6fd117386f72752268c");
    ((8, 8, 1), "255d0854fe0fc66bc3d22d9c3a39ea44");
    ((8, 8, 4), "b55681f6437c4b8f4ead47ea7dfad668");
    ((8, 8, 15), "f5ca214c246f35048af05c39f90183b8");
    ((16, 12, 0), "9face3d795299a9ce6a815599b798b74");
    ((16, 12, 1), "1aa2c56355b881c9b4cd115a58d818b6");
    ((16, 12, 4), "fa2bd035a629a4d7391304d8751de933");
    ((16, 12, 15), "bcf5778064021892c22293fcaa95beba");
  ]

let test_golden_window_boundaries () =
  List.iter
    (fun ((width, height, search_range), digest) ->
      check Alcotest.string
        (Printf.sprintf "%dx%d range %d digest" width height search_range)
        digest
        (window_digest ~width ~height ~search_range))
    window_digests

(* --- Golden outcomes on corrupt input ------------------------------------ *)

(* Fifty deterministic mutations of each paper workload's stream at
   33x17, which has edge blocks on both axes: ten truncations and forty
   single-byte flips. Every outcome, the decoded frames or the error
   message, feeds one MD5 per workload. The pins were taken before the
   decode path was rewritten, so they also fix where corrupt input
   fails and what it decodes to. *)

let raster_bytes img = Bytes.to_string (Image.Raster.data img)

let decode_outcome data =
  match Codec.Decoder.decode data with
  | Error msg -> "error:" ^ msg
  | Ok d ->
    "ok:" ^ String.concat "" (Array.to_list (Array.map raster_bytes d.Codec.Decoder.frames))

let mutations ~seed data =
  let rng = Image.Prng.create ~seed in
  let n = String.length data in
  List.init 50 (fun k ->
      if k < 10 then String.sub data 0 (Image.Prng.int rng n)
      else begin
        let b = Bytes.of_string data in
        let pos = Image.Prng.int rng n in
        Bytes.set b pos (Char.chr (Char.code data.[pos] lxor (1 + Image.Prng.int rng 255)));
        Bytes.to_string b
      end)

let corrupt_digest ~seed (profile : Video.Profile.t) =
  let full = Video.Clip_gen.render ~width:33 ~height:17 ~fps:12. profile in
  let clip =
    Video.Clip.make ~name:full.Video.Clip.name ~width:33 ~height:17 ~fps:12.
      ~frame_count:8 (fun i -> full.Video.Clip.render (2 * i))
  in
  let e =
    Codec.Encoder.encode_clip ~params:{ Codec.Stream.default_params with gop = 4 } clip
  in
  mutations ~seed e.Codec.Encoder.data
  |> List.map (fun m -> Digest.string (decode_outcome m))
  |> String.concat ""
  |> Digest.string
  |> Digest.to_hex

let corrupt_digests =
  [
    ("themovie", "1074513487e331b0b7385e959eaa7c09");
    ("catwoman", "ff0861b2aefc24ccb3a411534e7a6aaf");
    ("hunter_subres", "272c0cf549be4c7f69767420ef3b3d14");
    ("i_robot", "ed3b9fae1ef5075c89323b602c609b79");
    ("ice_age", "dcd80c233315abea5e926b5c1c691549");
    ("officexp", "776562d1a2c25213505da8182f5ad2a2");
    ("returnoftheking", "8943894f90d462dee994ce522a0e25aa");
    ("shrek2", "f07ea1065ac45f0ced13495e82e16e54");
    ("spiderman2", "c4ea397fd2085c1ace92bc5669a551d5");
    ("theincredibles-tlr2", "48898fdadacb160f68902162c6384441");
  ]

let test_golden_corrupt_input () =
  List.iteri
    (fun i (profile : Video.Profile.t) ->
      let name = profile.Video.Profile.name in
      check Alcotest.string (name ^ " mutation outcomes")
        (List.assoc name corrupt_digests)
        (corrupt_digest ~seed:(i + 1) profile))
    Video.Workloads.all

(* The codec's counters over one decode of [data]: DCT ops, quant
   ops, I frames, P frames and stream bytes. *)
let decode_counter_deltas data =
  let series =
    [
      ("codec_dct_ops_total", []);
      ("codec_quant_ops_total", []);
      ("codec_frames_decoded_total", [ ("type", "I") ]);
      ("codec_frames_decoded_total", [ ("type", "P") ]);
      ("codec_decoded_bytes_total", []);
    ]
  in
  let values () =
    List.map (fun (name, labels) -> Obs.Metrics.Counter.value (Obs.counter name labels)) series
  in
  let before = values () in
  ignore (Codec.Decoder.decode_exn data);
  List.map2 ( - ) (values ()) before

(* Over one 32x24 decode: a faster decode path must count exactly the
   same transforms, quantiser passes, frames and bytes. *)
let golden_decode_counters = [ 160; 160; 1; 7; 322 ]

let test_golden_decode_counters () =
  let data =
    (Codec.Encoder.encode_clip (test_clip ~width:32 ~height:24 ~frames:8 ()))
      .Codec.Encoder.data
  in
  Obs.with_enabled @@ fun () ->
  Alcotest.(check (list int)) "dct, quant, I, P, bytes" golden_decode_counters
    (decode_counter_deltas data)

(* The codec counts its work and leaves timing to the stage spans: an
   encode and a decode with obs and monitoring on leave no codec
   histogram family in the scrape, drop no histogram sample, and count
   exactly what the golden pin above counts. *)
let test_codec_counts_not_time () =
  let clip = test_clip ~width:32 ~height:24 ~frames:8 () in
  Obs.enable ();
  Obs.enable_monitoring ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable_monitoring ();
      Obs.disable ())
    (fun () ->
      let dropped = Obs.Metrics.dropped_samples_total () in
      let data = (Codec.Encoder.encode_clip clip).Codec.Encoder.data in
      Alcotest.(check (list int)) "decode counters" golden_decode_counters
        (decode_counter_deltas data);
      let codec_types =
        List.filter
          (String.starts_with ~prefix:"# TYPE codec_")
          (String.split_on_char '\n' (Obs.Openmetrics.of_registry ~trace_top:0 ()))
      in
      Alcotest.(check bool) "the scrape carries the codec counters" true
        (List.mem "# TYPE codec_dct_ops counter" codec_types);
      Alcotest.(check (list string)) "every codec family is a counter" []
        (List.filter (fun l -> not (String.ends_with ~suffix:" counter" l)) codec_types);
      Alcotest.(check int) "no dropped samples" dropped
        (Obs.Metrics.dropped_samples_total ()))

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bitio_roundtrip;
      prop_golomb_ue_roundtrip;
      prop_golomb_se_roundtrip;
      prop_reader_matches_reference;
      prop_coeff_roundtrip;
      prop_dct_inverse_matches_dense;
      prop_motion_kernels_match_clamped;
      prop_of_raster_into_matches_reference;
      prop_byte_kernels_match_old_loops;
    ]

let () =
  Alcotest.run "codec"
    [
      ( "bitio",
        [
          Alcotest.test_case "single bits" `Quick test_bitio_single_bits;
          Alcotest.test_case "multibit values" `Quick test_bitio_multibit_values;
          Alcotest.test_case "value too wide" `Quick test_bitio_value_too_wide;
          Alcotest.test_case "alignment" `Quick test_bitio_alignment;
          Alcotest.test_case "out of bits" `Quick test_bitio_out_of_bits;
        ] );
      ( "golomb",
        [
          Alcotest.test_case "small values" `Quick test_golomb_small_values;
          Alcotest.test_case "code lengths" `Quick test_golomb_code_lengths;
          Alcotest.test_case "negative rejected" `Quick test_golomb_negative_rejected;
          Alcotest.test_case "long prefix rejected" `Quick test_golomb_long_prefix_rejected;
        ] );
      ( "zigzag",
        [
          Alcotest.test_case "permutation" `Quick test_zigzag_is_permutation;
          Alcotest.test_case "starts at DC" `Quick test_zigzag_starts_at_dc;
        ] );
      ( "dct",
        [
          Alcotest.test_case "roundtrip accuracy" `Quick test_dct_roundtrip_accuracy;
          Alcotest.test_case "flat block DC" `Quick test_dct_dc_of_flat_block;
          Alcotest.test_case "parseval" `Quick test_dct_parseval;
          Alcotest.test_case "bad size" `Quick test_dct_bad_size;
        ] );
      ( "quant",
        [
          Alcotest.test_case "zero preserved" `Quick test_quant_zero_preserved;
          Alcotest.test_case "coarser at higher qp" `Quick test_quant_coarser_at_higher_qp;
          Alcotest.test_case "bounded error" `Quick test_quant_dequant_bounded_error;
          Alcotest.test_case "invalid qp" `Quick test_quant_invalid_qp;
        ] );
      ( "coeff",
        [
          Alcotest.test_case "all-zero block" `Quick test_coeff_all_zero_block;
          Alcotest.test_case "sparse block" `Quick test_coeff_sparse_block;
          Alcotest.test_case "exact bit cost" `Quick test_coeff_bit_cost_exact;
        ] );
      ( "plane",
        [
          Alcotest.test_case "edge clamped reads" `Quick test_plane_edge_clamped_reads;
          Alcotest.test_case "pad and crop" `Quick test_plane_pad_and_crop;
          Alcotest.test_case "aligned pad no-op" `Quick test_plane_pad_identity_when_aligned;
          Alcotest.test_case "ycbcr gray roundtrip" `Quick test_plane_ycbcr_gray_roundtrip;
          Alcotest.test_case "ycbcr color bounded" `Quick test_plane_ycbcr_color_bounded;
        ] );
      ( "motion",
        [
          Alcotest.test_case "finds exact shift" `Quick test_motion_finds_exact_shift;
          Alcotest.test_case "zero preferred on tie" `Quick test_motion_zero_preferred_on_tie;
          Alcotest.test_case "halfpel exact at integers" `Quick
            test_motion_halfpel_integer_positions_exact;
          Alcotest.test_case "halfpel interpolates" `Quick test_motion_halfpel_interpolates;
          Alcotest.test_case "halfpel refinement" `Quick
            test_motion_halfpel_refinement_wins_on_subpel_shift;
          Alcotest.test_case "chroma vector" `Quick test_motion_chroma_vector;
          Alcotest.test_case "extract/store roundtrip" `Quick
            test_motion_extract_store_roundtrip;
          Alcotest.test_case "window reach" `Quick test_motion_window_reach;
          Alcotest.test_case "hostile vectors" `Quick test_hostile_vectors;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "roundtrip PSNR" `Quick test_codec_roundtrip_psnr;
          Alcotest.test_case "P frames smaller" `Quick test_codec_p_frames_smaller;
          Alcotest.test_case "gop structure" `Quick test_codec_gop_structure;
          Alcotest.test_case "qp vs size" `Quick test_codec_higher_qp_smaller_stream;
          Alcotest.test_case "qp vs quality" `Quick test_codec_higher_qp_lower_quality;
          Alcotest.test_case "odd dimensions" `Quick test_codec_odd_dimensions;
          Alcotest.test_case "single frame" `Quick test_codec_single_frame;
          Alcotest.test_case "rejects bad params" `Quick test_codec_rejects_bad_params;
          Alcotest.test_case "rejects mismatched frame" `Quick test_codec_rejects_mismatched_frame;
          Alcotest.test_case "static clip compresses" `Quick
            test_codec_static_clip_compresses_well;
        ] );
      ( "deblock",
        [
          Alcotest.test_case "blockiness metric" `Quick test_deblock_blockiness_metric;
          Alcotest.test_case "reduces blockiness" `Quick test_deblock_reduces_blockiness;
          Alcotest.test_case "preserves strong edges" `Quick
            test_deblock_preserves_strong_edges;
          Alcotest.test_case "coarse stream" `Quick test_deblock_on_coarse_stream;
        ] );
      ( "gop planner",
        [
          Alcotest.test_case "anchors" `Quick test_gop_planner_anchors;
          Alcotest.test_case "refresh in long scenes" `Quick
            test_gop_planner_refresh_inside_long_scene;
          Alcotest.test_case "validation" `Quick test_gop_planner_validation;
          Alcotest.test_case "encoder custom I frames" `Quick test_encoder_custom_i_frames;
        ] );
      ( "per-frame qp",
        [ Alcotest.test_case "patched qp byte" `Quick test_per_frame_qp_byte ] );
      ( "robustness",
        [
          Alcotest.test_case "garbage rejected" `Quick test_decoder_rejects_garbage;
          Alcotest.test_case "truncation rejected" `Quick test_decoder_rejects_truncation;
          Alcotest.test_case "bad magic rejected" `Quick test_decoder_rejects_bad_magic;
          Alcotest.test_case "mutation fuzz" `Quick test_decoder_mutation_fuzz;
          Alcotest.test_case "into checks geometry" `Quick test_decoder_into_checks_geometry;
          Alcotest.test_case "implausible frame count" `Quick
            test_decoder_rejects_implausible_count;
          Alcotest.test_case "wrapping block count" `Quick
            test_decoder_rejects_wrapping_block_count;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fingerprint" `Quick test_golden_fingerprint;
          Alcotest.test_case "search window boundaries" `Quick
            test_golden_window_boundaries;
          Alcotest.test_case "corrupt input" `Quick test_golden_corrupt_input;
          Alcotest.test_case "decode counters" `Quick test_golden_decode_counters;
          Alcotest.test_case "counts, not time" `Quick test_codec_counts_not_time;
        ] );
      ("properties", qtests);
    ]

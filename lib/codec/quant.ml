type plane_kind = Luma | Chroma

(* JPEG Annex K tables, the conventional starting point. *)
let luma_base =
  [|
    16; 11; 10; 16; 24; 40; 51; 61;
    12; 12; 14; 19; 26; 58; 60; 55;
    14; 13; 16; 24; 40; 57; 69; 56;
    14; 17; 22; 29; 51; 87; 80; 62;
    18; 22; 37; 56; 68; 109; 103; 77;
    24; 35; 55; 64; 81; 104; 113; 92;
    49; 64; 78; 87; 103; 121; 120; 101;
    72; 92; 95; 98; 112; 100; 103; 99;
  |]

let chroma_base =
  [|
    17; 18; 24; 47; 99; 99; 99; 99;
    18; 21; 26; 66; 99; 99; 99; 99;
    24; 26; 56; 99; 99; 99; 99; 99;
    47; 66; 99; 99; 99; 99; 99; 99;
    99; 99; 99; 99; 99; 99; 99; 99;
    99; 99; 99; 99; 99; 99; 99; 99;
    99; 99; 99; 99; 99; 99; 99; 99;
    99; 99; 99; 99; 99; 99; 99; 99;
  |]

type t = { qp : int; luma_steps : float array; chroma_steps : float array }

let scale_table qp base =
  (* qp 8 reproduces the base table; the scale is linear in qp. *)
  Array.map (fun s -> Float.max 1. (float_of_int s *. float_of_int qp /. 8.)) base

(* Every quantiser is built once, at module initialisation. The table
   is never written afterwards, so sharing it across domains is safe
   and [make] allocates nothing. *)
let table =
  Array.init 31 (fun i ->
      let qp = i + 1 in
      {
        qp;
        luma_steps = scale_table qp luma_base;
        chroma_steps = scale_table qp chroma_base;
      })

let make ~qp =
  if qp < 1 || qp > 31 then invalid_arg "Quant.make: qp out of [1, 31]";
  table.(qp - 1)

let qp t = t.qp

let steps t = function Luma -> t.luma_steps | Chroma -> t.chroma_steps

let obs_ops =
  Obs.counter ~help:"64-coefficient quantise/dequantise passes"
    "codec_quant_ops_total" []

let quantise_steps s coeffs out =
  for i = 0 to 63 do
    out.(i) <- int_of_float (Float.round (coeffs.(i) /. s.(i)))
  done

(* Also returns the rows that hold a non-zero level, bit [y] for row
   [y]: found on the integers, where zero is exact. *)
let dequantise_steps s levels out =
  let rows = ref 0 in
  for i = 0 to 63 do
    let level = levels.(i) in
    if level <> 0 then rows := !rows lor (1 lsl (i lsr 3));
    out.(i) <- float_of_int level *. s.(i)
  done;
  !rows

let quantise_into t kind coeffs out =
  if Array.length coeffs <> 64 || Array.length out <> 64 then
    invalid_arg "Quant.quantise: need 64 coefficients";
  Obs.Metrics.Counter.incr obs_ops;
  quantise_steps (steps t kind) coeffs out

let quantise t kind coeffs =
  let out = Array.make 64 0 in
  quantise_into t kind coeffs out;
  out

let dequantise t kind levels out =
  if Array.length levels <> 64 then invalid_arg "Quant.dequantise: need 64 levels";
  Obs.Metrics.Counter.incr obs_ops;
  dequantise_steps (steps t kind) levels out

type scratch = {
  levels : int array;
  prediction : float array;
  mid_grey : float array;
  coeffs : float array;
  tmp : float array;
  window : Motion.window;
}

let scratch () =
  {
    levels = Array.make 64 0;
    prediction = Array.make 64 0.;
    mid_grey = Array.make 64 128.;
    coeffs = Array.make 64 0.;
    tmp = Array.make 64 0.;
    window = Motion.window ~range:0;
  }

type luma_mode = Intra | Inter of Motion.vector

(* The co-located luma block is the top-left one of the chroma block's
   16x16 luma area; its half-pel vector floored to whole chroma samples
   is [Motion.chroma_vector], here in half-pels, with no record. *)
let chroma_prediction s ~luma_modes ~luma_bw ~reference ~x ~y =
  let luma_bh = Array.length luma_modes / luma_bw in
  let lx = min (x / 4) (luma_bw - 1) and ly = min (y / 4) (luma_bh - 1) in
  match luma_modes.((ly * luma_bw) + lx) with
  | Inter v ->
    Motion.predict s.window ~reference ~x ~y
      ~hx:(2 * (v.Motion.dx asr 2))
      ~hy:(2 * (v.Motion.dy asr 2))
      s.prediction;
    s.prediction
  | Intra -> s.mid_grey

type coder = {
  recon : scratch;
  samples : float array;
  residual : float array;
  coded_prediction : float array;
  coded_levels : int array;
  alt_prediction : float array;
  alt_levels : int array;
  intra_levels : int array;
  search : Motion.window;
}

let coder ~search_range =
  {
    recon = scratch ();
    samples = Array.make 64 0.;
    residual = Array.make 64 0.;
    coded_prediction = Array.make 64 0.;
    coded_levels = Array.make 64 0;
    alt_prediction = Array.make 64 0.;
    alt_levels = Array.make 64 0;
    intra_levels = Array.make 64 0;
    search = Motion.window ~range:search_range;
  }

(* The transform runs in place on [c.residual], with the
   reconstruction scratch's [tmp] as its intermediate: reconstruction
   only runs after a block's levels are chosen. *)
let transform_quantise c q kind levels =
  Dct.forward_into c.residual ~tmp:c.recon.tmp c.residual;
  Quant.quantise_into q kind c.residual levels

let code_inter c q kind ~prediction levels =
  for i = 0 to 63 do
    c.residual.(i) <- c.samples.(i) -. prediction.(i)
  done;
  transform_quantise c q kind levels

(* IEEE addition commutes, so over [s.mid_grey] the sum is exactly
   [residual + 128.], the intra reconstruction. *)
let reconstruct s q kind ~prediction levels (plane : Plane.t) ~x ~y =
  let c = s.coeffs in
  let rows = Quant.dequantise q kind levels c in
  Dct.inverse_into ~rows c ~tmp:s.tmp c;
  for i = 0 to 63 do
    c.(i) <- prediction.(i) +. c.(i)
  done;
  Motion.store_block plane ~x ~y c

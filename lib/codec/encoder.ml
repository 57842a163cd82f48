type encoded = {
  data : string;
  width : int;
  height : int;
  fps : float;
  frame_count : int;
  params : Stream.params;
  frame_sizes_bits : int array;
  frame_types : Stream.frame_type array;
}

let obs_frames_encoded =
  let family t =
    Obs.counter ~help:"Frames pushed through the encoder"
      "codec_frames_encoded_total"
      [ ("type", t) ]
  in
  let i = family "I" and p = family "P" in
  function Stream.I_frame -> i | Stream.P_frame -> p

let obs_encoded_bytes =
  Obs.counter ~help:"Total compressed stream bytes produced"
    "codec_encoded_bytes_total" []

type luma_mode = Intra | Inter of Motion.vector

(* Bit cost of coding a motion vector. *)
let vector_cost (v : Motion.vector) =
  let z n = if n > 0 then (2 * n) - 1 else -2 * n in
  Golomb.ue_bit_length (z v.Motion.dx) + Golomb.ue_bit_length (z v.Motion.dy)

let write_header w ~width ~height ~fps ~frame_count (p : Stream.params) =
  String.iter (fun c -> Bitio.Writer.put_byte_aligned w (Char.code c)) Stream.magic;
  Bitio.Writer.put_byte_aligned w Stream.version;
  Golomb.write_ue w width;
  Golomb.write_ue w height;
  Golomb.write_ue w (int_of_float ((fps *. 1000.) +. 0.5));
  Golomb.write_ue w frame_count;
  Golomb.write_ue w p.Stream.gop;
  Golomb.write_ue w p.Stream.qp;
  Golomb.write_ue w p.Stream.search_range

(* Codes one luma plane of a P frame and reconstructs it in place into
   [recon]; returns the per-block mode grid. *)
let code_luma_p w s q ~search_range ~(current : Plane.t) ~(reference : Plane.t)
    ~(recon : Plane.t) =
  let bw = current.Plane.width / 8 and bh = current.Plane.height / 8 in
  let modes = Array.make (bw * bh) Intra in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      let samples = Motion.extract_block current ~x ~y in
      (* Candidate 1: inter with the best motion vector, integer search
         then half-pel refinement. *)
      let zero_sad = Motion.sad current reference ~x ~y Motion.zero in
      let searched =
        if zero_sad < 128 then
          (* Near-perfect zero-vector prediction (static content):
             half-pel refinement could only trade exact samples for
             interpolated ones. *)
          Motion.to_halfpel Motion.zero
        else begin
          let integer_vec, integer_sad =
            Motion.search ~range:search_range ~current ~reference ~x ~y ()
          in
          let refined, refined_sad =
            Motion.refine_halfpel ~current ~reference ~x ~y integer_vec
          in
          if refined_sad < integer_sad then refined else Motion.to_halfpel integer_vec
        end
      in
      (* SAD-best is not bits-best: evaluate the searched vector and the
         zero vector by exact bit cost, then compare with intra. *)
      let inter_candidate vector =
        let prediction = Motion.extract_predicted_halfpel reference ~x ~y vector in
        let levels = Block_codec.code_inter q Quant.Luma ~samples ~prediction in
        (1 + vector_cost vector + Coeff.bit_cost levels, vector, prediction, levels)
      in
      let candidates =
        inter_candidate searched
        ::
        (if searched = Motion.to_halfpel Motion.zero then []
         else [ inter_candidate (Motion.to_halfpel Motion.zero) ])
      in
      let inter_cost, vec, prediction, inter_levels =
        List.fold_left
          (fun (bc, bv, bp, bl) (c, v, p, l) ->
            if c < bc then (c, v, p, l) else (bc, bv, bp, bl))
          (List.hd candidates) (List.tl candidates)
      in
      (* Candidate 2: intra. *)
      let intra_levels = Block_codec.code_intra q Quant.Luma samples in
      let intra_cost = 1 + Coeff.bit_cost intra_levels in
      if inter_cost <= intra_cost then begin
        modes.((by * bw) + bx) <- Inter vec;
        Golomb.write_ue w 0;
        Golomb.write_se w vec.Motion.dx;
        Golomb.write_se w vec.Motion.dy;
        Coeff.write_block w inter_levels;
        Block_codec.reconstruct s q Quant.Luma ~prediction inter_levels recon ~x ~y
      end
      else begin
        Golomb.write_ue w 1;
        Coeff.write_block w intra_levels;
        Block_codec.reconstruct s q Quant.Luma ~prediction:s.Block_codec.mid_grey
          intra_levels recon ~x ~y
      end
    done
  done;
  modes

let code_plane_intra w s q kind ~(current : Plane.t) ~(recon : Plane.t) =
  let bw = current.Plane.width / 8 and bh = current.Plane.height / 8 in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      let samples = Motion.extract_block current ~x ~y in
      let levels = Block_codec.code_intra q kind samples in
      Coeff.write_block w levels;
      Block_codec.reconstruct s q kind ~prediction:s.Block_codec.mid_grey levels recon
        ~x ~y
    done
  done

(* Chroma of a P frame: mode and vector derived from the co-located
   luma block (top-left of the 16x16 luma area), so only the residual
   is written. *)
let code_chroma_p w s q ~luma_modes ~luma_bw ~luma_bh ~(current : Plane.t)
    ~(reference : Plane.t) ~(recon : Plane.t) =
  let bw = current.Plane.width / 8 and bh = current.Plane.height / 8 in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      let samples = Motion.extract_block current ~x ~y in
      let lx = min (2 * bx) (luma_bw - 1) and ly = min (2 * by) (luma_bh - 1) in
      match luma_modes.((ly * luma_bw) + lx) with
      | Inter vec ->
        let cvec = Motion.chroma_vector vec in
        let prediction = Motion.extract_predicted reference ~x ~y cvec in
        let levels = Block_codec.code_inter q Quant.Chroma ~samples ~prediction in
        Coeff.write_block w levels;
        Block_codec.reconstruct s q Quant.Chroma ~prediction levels recon ~x ~y
      | Intra ->
        let levels = Block_codec.code_intra q Quant.Chroma samples in
        Coeff.write_block w levels;
        Block_codec.reconstruct s q Quant.Chroma ~prediction:s.Block_codec.mid_grey
          levels recon ~x ~y
    done
  done

let pad_ycbcr (f : Plane.ycbcr) =
  {
    Plane.y = Plane.pad_to_multiple f.Plane.y 8;
    cb = Plane.pad_to_multiple f.Plane.cb 8;
    cr = Plane.pad_to_multiple f.Plane.cr 8;
  }

let encode_clip_impl ~params ?i_frame_at ?qp_for clip =
  if params.Stream.qp < 1 || params.Stream.qp > 31 then
    invalid_arg "Encoder: qp out of [1, 31]";
  if params.Stream.gop < 1 then invalid_arg "Encoder: gop must be positive";
  if params.Stream.search_range < 0 then invalid_arg "Encoder: negative search range";
  let frame_count = clip.Video.Clip.frame_count in
  if frame_count = 0 then invalid_arg "Encoder: empty clip";
  let w = Bitio.Writer.create () in
  write_header w ~width:clip.Video.Clip.width ~height:clip.Video.Clip.height
    ~fps:clip.Video.Clip.fps ~frame_count params;
  let frame_sizes_bits = Array.make frame_count 0 in
  let frame_types = Array.make frame_count Stream.I_frame in
  let s = Block_codec.scratch () in
  (* Each frame is reconstructed into the planes of the reference
     before last; coding rewrites every block of them. *)
  let reference = ref None and spare = ref None in
  for i = 0 to frame_count - 1 do
    let frame = pad_ycbcr (Plane.of_raster (clip.Video.Clip.render i)) in
    let is_i =
      (match i_frame_at with
      | Some predicate -> predicate i
      | None -> i mod params.Stream.gop = 0)
      || !reference = None
    in
    Bitio.Writer.align w;
    let start_bits = Bitio.Writer.bit_length w in
    (* Per-frame quantiser: adaptive callers steer the rate here. *)
    let qp =
      match qp_for with
      | None -> params.Stream.qp
      | Some f -> f ~index:i ~total_bits:start_bits
    in
    if qp < 1 || qp > 31 then invalid_arg "Encoder: controller qp out of [1, 31]";
    let q = Quant.make ~qp in
    Bitio.Writer.put_byte_aligned w (if is_i then Char.code 'I' else Char.code 'P');
    Bitio.Writer.put_byte_aligned w qp;
    let recon =
      match !spare with
      | Some planes -> planes
      | None ->
        let blank (p : Plane.t) = Plane.create ~width:p.Plane.width ~height:p.Plane.height in
        { Plane.y = blank frame.Plane.y; cb = blank frame.Plane.cb; cr = blank frame.Plane.cr }
    in
    (if is_i then begin
       frame_types.(i) <- Stream.I_frame;
       code_plane_intra w s q Quant.Luma ~current:frame.Plane.y ~recon:recon.Plane.y;
       code_plane_intra w s q Quant.Chroma ~current:frame.Plane.cb ~recon:recon.Plane.cb;
       code_plane_intra w s q Quant.Chroma ~current:frame.Plane.cr ~recon:recon.Plane.cr
     end
     else begin
       frame_types.(i) <- Stream.P_frame;
       let prev =
         match !reference with Some r -> r | None -> assert false
       in
       let luma_bw = frame.Plane.y.Plane.width / 8
       and luma_bh = frame.Plane.y.Plane.height / 8 in
       let modes =
         code_luma_p w s q ~search_range:params.Stream.search_range
           ~current:frame.Plane.y ~reference:prev.Plane.y ~recon:recon.Plane.y
       in
       code_chroma_p w s q ~luma_modes:modes ~luma_bw ~luma_bh
         ~current:frame.Plane.cb ~reference:prev.Plane.cb ~recon:recon.Plane.cb;
       code_chroma_p w s q ~luma_modes:modes ~luma_bw ~luma_bh
         ~current:frame.Plane.cr ~reference:prev.Plane.cr ~recon:recon.Plane.cr
     end);
    Plane.clamp recon.Plane.y;
    Plane.clamp recon.Plane.cb;
    Plane.clamp recon.Plane.cr;
    spare := !reference;
    reference := Some recon;
    frame_sizes_bits.(i) <- Bitio.Writer.bit_length w - start_bits;
    Obs.Metrics.Counter.incr (obs_frames_encoded frame_types.(i))
  done;
  Obs.Metrics.Counter.incr obs_encoded_bytes
    ~by:((Bitio.Writer.bit_length w + 7) / 8);
  {
    data = Bitio.Writer.contents w;
    width = clip.Video.Clip.width;
    height = clip.Video.Clip.height;
    fps = clip.Video.Clip.fps;
    frame_count;
    params;
    frame_sizes_bits;
    frame_types;
  }

let encode_clip ?(params = Stream.default_params) ?i_frame_at ?qp_for clip =
  Obs.Trace.with_span "codec.encode"
    ~attrs:
      [
        ("clip", clip.Video.Clip.name);
        ("frames", string_of_int clip.Video.Clip.frame_count);
      ]
    (fun () -> encode_clip_impl ~params ?i_frame_at ?qp_for clip)

let total_bytes e = String.length e.data

let mean_frame_bytes e =
  float_of_int (Array.fold_left ( + ) 0 e.frame_sizes_bits)
  /. 8. /. float_of_int e.frame_count

let pp_summary ppf e =
  Format.fprintf ppf "<stream %dx%d %d frames qp=%d %d bytes (%.0f B/frame)>"
    e.width e.height e.frame_count e.params.Stream.qp (total_bytes e)
    (mean_frame_bytes e)

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

(* Codes [c.samples] as inter from [vector]: the prediction, read from
   the search window, lands in [prediction], the levels in [levels];
   returns the exact bit cost. *)
let inter_cost (c : Block_codec.coder) q vector ~prediction levels =
  Motion.window_predicted_halfpel_into c.search vector prediction;
  Block_codec.code_inter c q Quant.Luma ~prediction levels;
  1 + vector_cost vector + Coeff.bit_cost levels

(* Codes one luma plane of a P frame and reconstructs it in place into
   [recon]; returns the per-block mode grid. Each block fills the
   coder's search window once; every motion candidate reads it. *)
let code_luma_p w (c : Block_codec.coder) q ~(current : Plane.t)
    ~(reference : Plane.t) ~(recon : Plane.t) =
  let bw = current.Plane.width / 8 and bh = current.Plane.height / 8 in
  let modes = Array.make (bw * bh) Block_codec.Intra in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      Motion.extract_block_into current ~x ~y c.samples;
      Motion.fill c.search ~current ~reference ~x ~y ~centre:Motion.zero;
      (* Candidate 1: inter with the best motion vector, integer search
         then half-pel refinement. *)
      let zero_sad = Motion.window_sad c.search Motion.zero in
      let searched =
        if zero_sad < 128 then
          (* Near-perfect zero-vector prediction (static content):
             half-pel refinement could only trade exact samples for
             interpolated ones. *)
          Motion.zero
        else begin
          let integer_vec, integer_sad = Motion.window_search c.search ~zero_sad in
          let refined, refined_sad = Motion.window_refine c.search integer_vec in
          if refined_sad < integer_sad then refined else Motion.to_halfpel integer_vec
        end
      in
      (* SAD-best is not bits-best: code the searched vector and, unless
         it is the zero vector, the zero vector too, and keep the one
         with the lower exact bit cost (the searched one on a tie); then
         compare with intra. *)
      let searched_cost =
        inter_cost c q searched ~prediction:c.coded_prediction c.coded_levels
      in
      let zero_cost =
        if searched.Motion.dx = 0 && searched.Motion.dy = 0 then max_int
        else
          inter_cost c q Motion.zero ~prediction:c.alt_prediction c.alt_levels
      in
      let zero_wins = zero_cost < searched_cost in
      (* Candidate 2: intra. *)
      Block_codec.code_inter c q Quant.Luma ~prediction:c.recon.Block_codec.mid_grey
        c.intra_levels;
      let intra_cost = 1 + Coeff.bit_cost c.intra_levels in
      if (if zero_wins then zero_cost else searched_cost) <= intra_cost then begin
        let vec = if zero_wins then Motion.zero else searched in
        let prediction = if zero_wins then c.alt_prediction else c.coded_prediction
        and levels = if zero_wins then c.alt_levels else c.coded_levels in
        modes.((by * bw) + bx) <- Block_codec.Inter vec;
        Golomb.write_ue w 0;
        Golomb.write_se w vec.Motion.dx;
        Golomb.write_se w vec.Motion.dy;
        Coeff.write_block w levels;
        Block_codec.reconstruct c.recon q Quant.Luma ~prediction levels recon ~x ~y
      end
      else begin
        Golomb.write_ue w 1;
        Coeff.write_block w c.intra_levels;
        Block_codec.reconstruct c.recon q Quant.Luma
          ~prediction:c.recon.Block_codec.mid_grey c.intra_levels recon ~x ~y
      end
    done
  done;
  modes

let code_plane_intra w (c : Block_codec.coder) q kind ~(current : Plane.t)
    ~(recon : Plane.t) =
  let bw = current.Plane.width / 8 and bh = current.Plane.height / 8 in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      Motion.extract_block_into current ~x ~y c.samples;
      let prediction = c.recon.Block_codec.mid_grey in
      Block_codec.code_inter c q kind ~prediction c.coded_levels;
      Coeff.write_block w c.coded_levels;
      Block_codec.reconstruct c.recon q kind ~prediction c.coded_levels recon ~x ~y
    done
  done

(* Chroma of a P frame: mode and vector come from the co-located luma
   block, so only the residual is written. *)
let code_chroma_p w (c : Block_codec.coder) q ~luma_modes ~luma_bw
    ~(current : Plane.t) ~reference ~(recon : Plane.t) =
  let bw = current.Plane.width / 8 and bh = current.Plane.height / 8 in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      Motion.extract_block_into current ~x ~y c.samples;
      let prediction =
        Block_codec.chroma_prediction c.recon ~luma_modes ~luma_bw ~reference ~x ~y
      in
      Block_codec.code_inter c q Quant.Chroma ~prediction c.coded_levels;
      Coeff.write_block w c.coded_levels;
      Block_codec.reconstruct c.recon q Quant.Chroma ~prediction c.coded_levels recon
        ~x ~y
    done
  done

let encode_clip_impl ~params ?i_frame_at clip =
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
  let c = Block_codec.coder ~search_range:params.Stream.search_range in
  let q = Quant.make ~qp:params.Stream.qp in
  let width = clip.Video.Clip.width and height = clip.Video.Clip.height in
  let planes () = Plane.create_ycbcr ~width ~height ~multiple:8 in
  (* Each frame is converted into the same padded planes, and
     reconstructed into the planes of the reference before last;
     coding rewrites every block of them. *)
  let frame = planes () in
  let reference = ref None and spare = ref None in
  for i = 0 to frame_count - 1 do
    let raster = clip.Video.Clip.render i in
    if Image.Raster.width raster <> width || Image.Raster.height raster <> height then
      invalid_arg "Encoder: frame dimensions differ from the clip's";
    Plane.of_raster_into raster frame;
    let is_i =
      (match i_frame_at with
      | Some predicate -> predicate i
      | None -> i mod params.Stream.gop = 0)
      || !reference = None
    in
    Bitio.Writer.align w;
    let start_bits = Bitio.Writer.bit_length w in
    Bitio.Writer.put_byte_aligned w (if is_i then Char.code 'I' else Char.code 'P');
    Bitio.Writer.put_byte_aligned w params.Stream.qp;
    let recon = match !spare with Some planes -> planes | None -> planes () in
    (if is_i then begin
       frame_types.(i) <- Stream.I_frame;
       code_plane_intra w c q Quant.Luma ~current:frame.Plane.y ~recon:recon.Plane.y;
       code_plane_intra w c q Quant.Chroma ~current:frame.Plane.cb ~recon:recon.Plane.cb;
       code_plane_intra w c q Quant.Chroma ~current:frame.Plane.cr ~recon:recon.Plane.cr
     end
     else begin
       frame_types.(i) <- Stream.P_frame;
       let prev =
         match !reference with Some r -> r | None -> assert false
       in
       let luma_bw = frame.Plane.y.Plane.width / 8 in
       let luma_modes =
         code_luma_p w c q ~current:frame.Plane.y ~reference:prev.Plane.y
           ~recon:recon.Plane.y
       in
       code_chroma_p w c q ~luma_modes ~luma_bw ~current:frame.Plane.cb
         ~reference:prev.Plane.cb ~recon:recon.Plane.cb;
       code_chroma_p w c q ~luma_modes ~luma_bw ~current:frame.Plane.cr
         ~reference:prev.Plane.cr ~recon:recon.Plane.cr
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

let encode_clip ?(params = Stream.default_params) ?i_frame_at clip =
  Obs.Trace.with_span "codec.encode"
    ~attrs:
      [
        ("clip", clip.Video.Clip.name);
        ("frames", string_of_int clip.Video.Clip.frame_count);
      ]
    (fun () -> encode_clip_impl ~params ?i_frame_at clip)

let total_bytes e = String.length e.data

type decoded = {
  width : int;
  height : int;
  fps : float;
  params : Stream.params;
  frames : Image.Raster.t array;
}

type stream_info = {
  info_width : int;
  info_height : int;
  info_fps : float;
  info_frame_count : int;
  info_params : Stream.params;
  header_bytes : int;
}

type reference = Plane.ycbcr

let obs_frames_decoded =
  let family t =
    Obs.counter ~help:"Frames reconstructed by the decoder"
      "codec_frames_decoded_total"
      [ ("type", t) ]
  in
  let i = family "I" and p = family "P" in
  fun marker -> if marker = Char.code 'I' then i else p

let obs_decoded_bytes =
  Obs.counter ~help:"Compressed stream bytes consumed by the decoder"
    "codec_decoded_bytes_total" []

exception Corrupt of string

let fail msg = raise (Corrupt msg)

let read_header r =
  String.iter
    (fun c ->
      if Bitio.Reader.get_byte_aligned r <> Char.code c then fail "bad magic")
    Stream.magic;
  if Bitio.Reader.get_byte_aligned r <> Stream.version then fail "bad version";
  let width = Golomb.read_ue r in
  let height = Golomb.read_ue r in
  let fps = float_of_int (Golomb.read_ue r) /. 1000. in
  let frame_count = Golomb.read_ue r in
  let gop = Golomb.read_ue r in
  let qp = Golomb.read_ue r in
  let search_range = Golomb.read_ue r in
  if width <= 0 || height <= 0 then fail "bad dimensions";
  if width > 8192 || height > 8192 then fail "implausible dimensions";
  if fps <= 0. then fail "bad fps";
  if qp < 1 || qp > 31 then fail "bad qp";
  if gop < 1 then fail "bad gop";
  Bitio.Reader.align r;
  {
    info_width = width;
    info_height = height;
    info_fps = fps;
    info_frame_count = frame_count;
    info_params = { Stream.qp; gop; search_range };
    header_bytes = Bitio.Reader.position_bits r / 8;
  }

let parse_header data =
  match read_header (Bitio.Reader.of_string data) with
  | info -> Ok info
  | exception Corrupt msg -> Error msg
  | exception Bitio.Reader.Out_of_bits -> Error "truncated header"

(* Reads one block's levels and reconstructs it over [prediction]. *)
let decode_block r s q kind ~prediction plane ~x ~y =
  Coeff.read_block r s.Block_codec.levels;
  Block_codec.reconstruct s q kind ~prediction s.Block_codec.levels plane ~x ~y

let decode_plane_intra r s q kind (plane : Plane.t) =
  let bw = plane.Plane.width / 8 and bh = plane.Plane.height / 8 in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      decode_block r s q kind ~prediction:s.Block_codec.mid_grey plane ~x:(bx * 8)
        ~y:(by * 8)
    done
  done

let decode_luma_p r s q ~(reference : Plane.t) (plane : Plane.t) =
  let bw = plane.Plane.width / 8 and bh = plane.Plane.height / 8 in
  let modes = Array.make (bw * bh) Block_codec.Intra in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      match Golomb.read_ue r with
      | 0 ->
        (* Vectors are coded in half-pel units. *)
        let dx = Golomb.read_se r in
        let dy = Golomb.read_se r in
        Motion.predict s.Block_codec.window ~reference ~x ~y ~hx:dx ~hy:dy
          s.Block_codec.prediction;
        modes.((by * bw) + bx) <- Block_codec.Inter { Motion.dx; dy };
        decode_block r s q Quant.Luma ~prediction:s.Block_codec.prediction plane ~x ~y
      | 1 -> decode_block r s q Quant.Luma ~prediction:s.Block_codec.mid_grey plane ~x ~y
      | m -> fail (Printf.sprintf "bad block mode %d" m)
    done
  done;
  modes

let decode_chroma_p r s q ~luma_modes ~luma_bw ~reference (plane : Plane.t) =
  let bw = plane.Plane.width / 8 and bh = plane.Plane.height / 8 in
  for by = 0 to bh - 1 do
    for bx = 0 to bw - 1 do
      let x = bx * 8 and y = by * 8 in
      let prediction =
        Block_codec.chroma_prediction s ~luma_modes ~luma_bw ~reference ~x ~y
      in
      decode_block r s q Quant.Chroma ~prediction plane ~x ~y
    done
  done

let reference_planes info =
  Plane.create_ycbcr ~width:info.info_width ~height:info.info_height ~multiple:8

let raster_of_planes info planes =
  Plane.to_raster_cropped planes ~width:info.info_width ~height:info.info_height

(* Decodes one frame from the reader's current (aligned) position into
   [planes]. Every block of the padded planes is rewritten, so nothing
   of their previous contents survives. *)
let decode_frame_body r s ~planes ~reference =
  Bitio.Reader.align r;
  let obs_start_bits = Bitio.Reader.position_bits r in
  let marker = Bitio.Reader.get_byte_aligned r in
  let qp = Bitio.Reader.get_byte_aligned r in
  if qp < 1 || qp > 31 then fail "bad frame qp";
  let q = Quant.make ~qp in
  (match (Char.chr marker, reference) with
  | 'I', _ ->
    decode_plane_intra r s q Quant.Luma planes.Plane.y;
    decode_plane_intra r s q Quant.Chroma planes.Plane.cb;
    decode_plane_intra r s q Quant.Chroma planes.Plane.cr
  | 'P', Some prev ->
    let luma_bw = planes.Plane.y.Plane.width / 8 in
    let luma_modes = decode_luma_p r s q ~reference:prev.Plane.y planes.Plane.y in
    decode_chroma_p r s q ~luma_modes ~luma_bw ~reference:prev.Plane.cb
      planes.Plane.cb;
    decode_chroma_p r s q ~luma_modes ~luma_bw ~reference:prev.Plane.cr
      planes.Plane.cr
  | 'P', None -> fail "P frame without reference"
  | _ -> fail "bad frame marker"
  | exception Invalid_argument _ -> fail "bad frame marker");
  Plane.clamp planes.Plane.y;
  Plane.clamp planes.Plane.cb;
  Plane.clamp planes.Plane.cr;
  Obs.Metrics.Counter.incr (obs_frames_decoded marker);
  Obs.Metrics.Counter.incr obs_decoded_bytes
    ~by:((Bitio.Reader.position_bits r - obs_start_bits + 7) / 8);
  planes

let decode_frame_into ~scratch ~into:planes ~info ~reference payload =
  let padded p =
    Plane.has_ycbcr_geometry p ~width:info.info_width ~height:info.info_height
      ~multiple:8
  in
  if not (padded planes && Option.fold ~none:true ~some:padded reference) then
    invalid_arg "Decoder.decode_frame_into: planes are not the stream's padded geometry";
  let r = Bitio.Reader.of_string payload in
  match decode_frame_body r scratch ~planes ~reference with
  | _ -> Ok ()
  | exception Corrupt msg -> Error msg
  | exception Bitio.Reader.Out_of_bits -> Error "truncated frame"
  | exception Invalid_argument msg -> Error msg

let decode_body r =
  let info = read_header r in
  (* Every frame carries at least its marker and qp bytes, so a count
     the remaining bits cannot hold is rejected before it sizes the
     frame array. *)
  if info.info_frame_count > Bitio.Reader.bits_remaining r / 16 then
    fail "implausible frame count";
  let frames =
    Array.make info.info_frame_count (Image.Raster.create ~width:1 ~height:1)
  in
  let s = Block_codec.scratch () in
  (* Each frame is reconstructed into the planes of the reference
     before last, which nothing reads any more. *)
  let reference = ref None and spare = ref (reference_planes info) in
  for i = 0 to info.info_frame_count - 1 do
    let planes = decode_frame_body r s ~planes:!spare ~reference:!reference in
    spare := (match !reference with Some prev -> prev | None -> reference_planes info);
    reference := Some planes;
    frames.(i) <- raster_of_planes info planes
  done;
  {
    width = info.info_width;
    height = info.info_height;
    fps = info.info_fps;
    params = info.info_params;
    frames;
  }

let decode data =
  Obs.Trace.with_span "codec.decode"
    ~attrs:[ ("bytes", string_of_int (String.length data)) ]
    (fun () ->
      let r = Bitio.Reader.of_string data in
      match decode_body r with
      | d -> Ok d
      | exception Corrupt msg -> Error msg
      | exception Bitio.Reader.Out_of_bits -> Error "truncated stream"
      | exception Invalid_argument msg -> Error msg)

let decode_exn data =
  match decode data with Ok d -> d | Error msg -> failwith ("Decoder: " ^ msg)

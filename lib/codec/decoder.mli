(** The video decoder — the client-side workload of the paper's
    playback experiments.

    Two entry points: {!decode} consumes a whole bitstream; the
    frame-level API ({!parse_header}, {!decode_frame_into}) lets a
    transport layer drive decoding frame by frame with explicit
    reference injection, which is what loss concealment needs (a lost
    frame is replaced by the previous picture, and later frames
    predict from the *concealed* picture, drifting until the next
    I-frame). A reference is a frame's padded planes;
    {!Plane.to_raster_cropped} at the stream's size displays it. *)

type decoded = {
  width : int;
  height : int;
  fps : float;
  params : Stream.params;
  frames : Image.Raster.t array;
}

val decode : string -> (decoded, string) result
(** [decode data] parses a bitstream produced by {!Encoder.encode_clip}
    and reconstructs every frame. Corrupt input yields [Error] with a
    reason; decoding never raises. *)

val decode_exn : string -> decoded
(** Like {!decode} but raises [Failure] on corrupt input. *)

(** {1 Frame-level decoding} *)

type stream_info = {
  info_width : int;
  info_height : int;
  info_fps : float;
  info_frame_count : int;
  info_params : Stream.params;
  header_bytes : int;  (** frame payloads start at this offset *)
}

val parse_header : string -> (stream_info, string) result

type reference = Plane.ycbcr
(** A decoded picture in the decoder's internal form, planes padded to
    multiples of 8, usable as the prediction reference for the next
    frame. *)

val reference_planes : stream_info -> reference
(** [reference_planes info] is a fresh zeroed set of planes of the
    stream's padded geometry, for {!decode_frame_into}. *)

val decode_frame_into :
  scratch:Block_codec.scratch ->
  into:reference ->
  info:stream_info ->
  reference:reference option ->
  string ->
  (unit, string) result
(** [decode_frame_into ~scratch ~into ~info ~reference payload]
    decodes exactly one frame from its own byte string (the bytes
    [frame_sizes_bits] delimits, from [header_bytes] on) into [into],
    and converts no picture, so a caller that decodes frame after
    frame can reuse both its planes and one [scratch]. P-frames
    require [reference]; I-frames ignore it. On [Ok ()] [into] holds
    the frame's reference, every sample of it rewritten; on [Error]
    its contents are unspecified. [into] must not be [reference]; both
    must have the geometry of {!reference_planes}, else
    [Invalid_argument] is raised. *)

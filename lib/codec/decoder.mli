(** The video decoder — the client-side workload of the paper's
    playback experiments.

    Two entry points: {!decode} consumes a whole bitstream; the
    frame-level API ({!parse_header}, {!decode_frame}) lets a transport
    layer drive decoding frame by frame with explicit reference
    injection, which is what loss concealment needs (a lost frame is
    replaced by the previous picture, and later frames predict from
    the *concealed* picture, drifting until the next I-frame). *)

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

type reference
(** A decoded picture in the decoder's internal (padded-plane) form,
    usable as the prediction reference for the next frame. *)

val reference_of_raster : Image.Raster.t -> reference
(** Converts any picture into a reference — the concealment path: when
    a frame is lost, the transport repeats the previous picture and
    injects it as the reference for what follows. *)

val raster_of_reference : width:int -> height:int -> reference -> Image.Raster.t
(** The displayable picture of a reference (cropped to the stream
    dimensions). *)

val decode_frame :
  info:stream_info ->
  reference:reference option ->
  string ->
  (Image.Raster.t * reference, string) result
(** [decode_frame ~info ~reference payload] decodes exactly one frame
    from its own byte string (as produced by
    {!Encoder.frame_payloads}) into fresh planes. P-frames require
    [reference]; I-frames ignore it. *)

val decode_frame_into :
  into:reference ->
  info:stream_info ->
  reference:reference option ->
  string ->
  (Image.Raster.t * reference, string) result
(** [decode_frame_into ~into ~info ~reference payload] is
    {!decode_frame} reconstructed into [into] instead of fresh planes,
    so a caller that decodes frame after frame can reuse the planes of
    its reference before last; the picture is the same. On success the
    returned reference is [into], every sample of it rewritten; on
    [Error] its contents are unspecified. [into] must not be
    [reference] and must have the stream's padded geometry (that of
    {!Plane.create_ycbcr} at multiple 8), else [Invalid_argument] is
    raised. *)

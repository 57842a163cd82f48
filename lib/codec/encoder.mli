(** The video encoder.

    An MPEG-1-style closed-loop encoder: I-frames are fully
    intra-coded; P-frames predict each 8x8 luma block from the
    *reconstructed* previous frame via full-search motion estimation,
    choosing intra or inter per block by exact bit cost. Chroma blocks
    derive mode and (halved) vector from the co-located luma block, so
    they need no mode syntax of their own. *)

type encoded = {
  data : string;  (** the complete bitstream, header included *)
  width : int;
  height : int;
  fps : float;
  frame_count : int;
  params : Stream.params;
  frame_sizes_bits : int array;  (** per-frame payload size *)
  frame_types : Stream.frame_type array;
}

val encode_clip :
  ?params:Stream.params ->
  ?i_frame_at:(int -> bool) ->
  Video.Clip.t ->
  encoded
(** [encode_clip ?params clip] encodes every frame. [i_frame_at]
    overrides the fixed-period GOP structure: frame [i] is intra-coded
    whenever [i_frame_at i] holds (frame 0 is always intra). Content-
    aware callers place I-frames at scene cuts, where a P-frame would
    be nearly as large but leave the GOP open (see {!Gop_planner}).
    It calls [clip.render i] exactly once per frame, in index order
    from 0, so a clip whose render has side effects (a cold session's
    prepare histograms each frame as it is rendered) sees each frame
    once.
    Raises [Invalid_argument] on invalid parameters, an empty clip or
    a rendered frame whose dimensions differ from the clip's. *)

val total_bytes : encoded -> int

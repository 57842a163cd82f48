(** Transform coding of a single 8x8 block — the kernel shared by the
    encoder (which also reconstructs, to keep its reference frames in
    lock-step with the decoder) and the decoder. *)

type scratch = {
  levels : int array;  (** the caller's 64 decoded levels *)
  prediction : float array;  (** the caller's 64 predicted samples *)
  mid_grey : float array;  (** 64 samples of 128, the intra prediction *)
  coeffs : float array;
  tmp : float array;
  window : Motion.window;  (** {!Motion.predict}'s edge copy *)
}
(** Per-call working memory: each decode or encode call makes its own,
    so no block allocates and no two calls share one. *)

val scratch : unit -> scratch

type luma_mode =
  | Intra
  | Inter of Motion.vector  (** a half-pel vector *)
(** How a P frame's luma block was coded; its chroma blocks follow it. *)

val chroma_prediction :
  scratch -> luma_modes:luma_mode array -> luma_bw:int -> reference:Plane.t ->
  x:int -> y:int -> float array
(** [chroma_prediction s ~luma_modes ~luma_bw ~reference ~x ~y] is the
    prediction of the P-frame chroma block at [(x, y)]: the co-located
    luma block's mode (the top-left one of its 16x16 luma area, in a
    mode grid [luma_bw] blocks wide) decides it. An inter block is
    {!Motion.predict}ed from [reference] under {!Motion.chroma_vector}
    of the luma vector into [s.prediction]; an intra block predicts
    [s.mid_grey]. The encoder and the decoder both call it. *)

type coder = {
  recon : scratch;  (** for {!reconstruct} *)
  samples : float array;  (** the 64 samples of the block being coded *)
  residual : float array;  (** transform input, transformed in place *)
  coded_prediction : float array;  (** an inter candidate's prediction *)
  coded_levels : int array;  (** its levels, or an intra block's *)
  alt_prediction : float array;  (** a second inter candidate's *)
  alt_levels : int array;
  intra_levels : int array;  (** the intra alternative's levels *)
  search : Motion.window;  (** the searched block and its reference window *)
}
(** The encoder's working memory: one per {!Encoder.encode_clip} call,
    so coding a block allocates nothing. *)

val coder : search_range:int -> coder
(** [coder ~search_range] sizes [search] for motion vectors within
    [search_range]. *)

val code_inter :
  coder -> Quant.t -> Quant.plane_kind -> prediction:float array -> int array -> unit
(** [code_inter c q kind ~prediction levels] codes the residual
    [c.samples - prediction] into [levels]; an intra block codes it
    over [c.recon.mid_grey]. *)

val reconstruct :
  scratch -> Quant.t -> Quant.plane_kind -> prediction:float array -> int array ->
  Plane.t -> x:int -> y:int -> unit
(** [reconstruct s q kind ~prediction levels plane ~x ~y] dequantises
    [levels], inverse-transforms them (skipping all-zero rows), adds
    [prediction] ([s.mid_grey] for an intra block), rounds and stores
    the block into [plane] at [(x, y)] as {!Motion.store_block} does.
    The only reconstruction path: the decoder and the encoder's
    lock-step reference both run it. *)

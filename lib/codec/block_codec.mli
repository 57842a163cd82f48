(** Transform coding of a single 8x8 block — the kernel shared by the
    encoder (which also reconstructs, to keep its reference frames in
    lock-step with the decoder) and the decoder. *)

type scratch = {
  levels : int array;  (** the caller's 64 decoded levels *)
  prediction : float array;  (** the caller's 64 predicted samples *)
  mid_grey : float array;  (** 64 samples of 128, the intra prediction *)
  coeffs : float array;
  tmp : float array;
}
(** Per-call working memory: each decode or encode call makes its own,
    so no block allocates and no two calls share one. *)

val scratch : unit -> scratch

val code_intra : Quant.t -> Quant.plane_kind -> float array -> int array
(** [code_intra q kind samples] centres the 64 samples at 0, applies
    the DCT and quantises. *)

val code_inter :
  Quant.t -> Quant.plane_kind -> samples:float array -> prediction:float array ->
  int array
(** [code_inter q kind ~samples ~prediction] codes the residual
    [samples - prediction]. *)

val reconstruct :
  scratch -> Quant.t -> Quant.plane_kind -> prediction:float array -> int array ->
  Plane.t -> x:int -> y:int -> unit
(** [reconstruct s q kind ~prediction levels plane ~x ~y] dequantises
    [levels], inverse-transforms them (skipping all-zero rows), adds
    [prediction] ([s.mid_grey] for an intra block), rounds and stores
    the block into [plane] at [(x, y)] as {!Motion.store_block} does.
    The only reconstruction path: the decoder and the encoder's
    lock-step reference both run it. *)

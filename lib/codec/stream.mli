(** Bitstream container types shared by the encoder and decoder. *)

type frame_type = I_frame | P_frame

type params = {
  qp : int;  (** quantiser, 1–31; default 8 *)
  gop : int;  (** I-frame period; default 12 *)
  search_range : int;  (** motion search window; default 4 *)
}

val default_params : params

val magic : string
(** ["MVC1"]. *)

val version : int

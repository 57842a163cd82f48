(** Backlight-control strategies compared against the paper's
    annotation approach.

    Each strategy decides a per-frame backlight register (and the
    compensation that goes with it). The annotation strategies see the
    whole clip ahead of time (server-side profiling); the client-side
    strategies only see what a real client would: the current frame
    after decoding it, or the past. *)

type t =
  | Annotated of Annotation.Scene_detect.params
      (** the paper's approach: offline scene-level annotation *)
  | Annotated_per_frame
      (** ablation A1: offline annotation with per-frame backlight
          changes (more savings, more flicker, §4.3) *)
  | Full_backlight  (** no optimisation: register 255 throughout *)
  | Static_dim of int
      (** a fixed register for the whole clip — the "static
          perspective" the introduction says has limited gain *)
  | Client_analysis of { cpu_overhead_fraction : float }
      (** decode-then-analyse on the device: per-frame optimal
          registers, but extra CPU duty cycle per frame (§3 argues
          this "would place a heavier load on the mobile device") *)
  | History_prediction of { window : int }
      (** predict frame [i]'s requirement from the previous [window]
          frames' maxima; mispredictions at scene changes clip more
          pixels than the budget allows (§3) *)
  | Qabs_smoothed of { max_step : int }
      (** per-frame analysis with a slew-rate limit on the register,
          approximating QABS's smoothing post-pass [4] *)

val name : t -> string

val cpu_overhead_fraction : t -> float
(** Extra CPU duty cycle the strategy costs the client (0 for
    server-side strategies). *)

val is_clairvoyant : t -> bool
(** True when the decision for frame [i] uses information a streaming
    client could not have at display time without annotations. *)

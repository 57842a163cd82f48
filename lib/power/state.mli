(** Instantaneous device activity state.

    The whole-device power at any instant is a function of this record;
    the playback simulator drives a state trace through the meter to
    reproduce the paper's DAQ measurements (Fig 10). *)

type cpu_state =
  | Cpu_busy  (** decoding or analysing a frame *)
  | Cpu_idle  (** waiting for the next frame *)

type network_state =
  | Net_receiving  (** stream packets arriving *)
  | Net_idle

type t = {
  backlight_on : bool;
  backlight_register : int;  (** 0–255; only meaningful when on *)
  cpu : cpu_state;
  network : network_state;
}

val playback_full : t
(** Decoding and receiving with the backlight at full: the baseline
    state of the paper's measurements. *)

val with_backlight : int -> t -> t
(** [with_backlight register state] sets the backlight register
    (clamped to 0–255). *)

(** Component and whole-device power models.

    §5: "the power consumption of the LCD is almost proportional to
    backlight level, but little dependent of pixel values, allowing us
    to analytically estimate the power savings through simulation."
    Backlight power is therefore modelled as a fixed driver floor plus
    a term linear in the register value, and is independent of frame
    content. *)

type breakdown = {
  backlight_mw : float;
  lcd_logic_mw : float;
  cpu_mw : float;
  network_mw : float;
  base_mw : float;
}

val backlight_power_mw : Display.Device.t -> on:bool -> register:int -> float
(** Power drawn by the backlight subsystem. Zero when off; otherwise
    [floor + (full - floor) * register / 255]. The register is clamped
    to 0–255. *)

val component_breakdown : Display.Device.t -> State.t -> breakdown
(** Per-component power at an instant. *)

val total_mw : breakdown -> float
(** Sum of all components. *)

val device_power_mw : Display.Device.t -> State.t -> float
(** [device_power_mw d s] is [total_mw (component_breakdown d s)]. *)

val backlight_share : Display.Device.t -> State.t -> float
(** Fraction of device power drawn by the backlight in the given state.
    At full backlight during playback this lands in the 25–30 % band
    the paper quotes for typical PDAs. *)

(** Per-scene backlight / compensation solver.

    Given the merged luminance histogram of a scene and the
    user-selected quality level, the solver finds the scene's
    *effective* maximum luminance — the smallest level such that the
    fraction of pixels above it fits in the clipping budget (Fig 5) —
    and from it:

    - the compensation gain [k = 255 / effective_max]: brightening the
      image by [k] maps the effective maximum to full scale;
    - the required relative backlight luminance
      [f = effective_max / 255]: dimming the backlight by [f] while
      brightening by [k = 1/f] keeps the perceived intensity
      [I = rho * L * Y] of every non-clipped pixel unchanged (§4.1);
    - the device register realising at least [f] through the
      backlight-luminance transfer function (§4.3: "The resulted value
      is later plugged into the backlight-luminance function for
      computing the required backlight level").

    Because registers are discrete the realised gain can exceed [f];
    the solver then *weakens* the compensation to [k = 1 / realised]
    so the output never clips more than the histogram predicted. *)

type solution = {
  effective_max : int;  (** clip level in [0, 255] *)
  desired_gain : float;  (** [effective_max / 255], in [0, 1] *)
  register : int;  (** backlight register for the device *)
  realised_gain : float;  (** transfer(register), at least desired *)
  compensation : float;  (** image gain [1 / realised_gain], at least 1 *)
  clipped_fraction : float;
      (** histogram-predicted fraction of pixels that clip *)
}

val solve :
  device:Display.Device.t ->
  quality:Quality_level.t ->
  Image.Histogram.t ->
  solution
(** [solve ~device ~quality hist] computes the scene solution. An
    all-black scene (effective max 0) maps to the smallest register
    with any light output and compensation 1 (nothing to show). Raises
    [Invalid_argument] on an empty histogram. *)

val of_effective_max :
  device:Display.Device.t ->
  effective_max:int ->
  clipped_fraction:float ->
  solution
(** [of_effective_max ~device ~effective_max ~clipped_fraction] derives
    the register/gain/compensation for an externally chosen clip level
    — the entry point for solvers with additional constraints (e.g.
    region-of-interest protection). [effective_max] must be in
    [0, 255]. *)

val pp : Format.formatter -> solution -> unit

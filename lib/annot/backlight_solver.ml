type solution = {
  effective_max : int;
  desired_gain : float;
  register : int;
  realised_gain : float;
  compensation : float;
  clipped_fraction : float;
}

let of_effective_max ~device ~effective_max ~clipped_fraction =
  if effective_max < 0 || effective_max > 255 then
    invalid_arg "Backlight_solver: effective max out of [0, 255]";
  if effective_max = 0 then
    (* Scene is black (after clipping): any visible backlight works and
       no compensation is meaningful. *)
    let register = Display.Device.register_for_gain device 0. in
    {
      effective_max;
      desired_gain = 0.;
      register;
      realised_gain = Display.Device.backlight_gain device register;
      compensation = 1.;
      clipped_fraction;
    }
  else begin
    let desired_gain = float_of_int effective_max /. 255. in
    let register = Display.Device.register_for_gain device desired_gain in
    let realised_gain = Display.Device.backlight_gain device register in
    (* Discretisation can only raise the gain; never brighten the image
       beyond what the realised backlight requires. *)
    let compensation = if realised_gain > 0. then 1. /. realised_gain else 1. in
    let compensation = Float.max 1. compensation in
    { effective_max; desired_gain; register; realised_gain; compensation; clipped_fraction }
  end

let obs_clip_fraction =
  Obs.histogram ~help:"Distribution of clipped-pixel fractions chosen"
    ~buckets:Obs.Metrics.default_fraction_buckets "annot_clip_fraction" []

let solve ~device ~quality hist =
  let allowed = Quality_level.allowed_loss quality in
  let effective_max = Image.Histogram.clip_level hist ~allowed_loss:allowed in
  let total = Image.Histogram.total hist in
  let clipped_fraction =
    float_of_int (Image.Histogram.samples_above hist effective_max)
    /. float_of_int total
  in
  Obs.Metrics.Histogram.observe obs_clip_fraction clipped_fraction;
  of_effective_max ~device ~effective_max ~clipped_fraction

let pp ppf s =
  Format.fprintf ppf
    "<eff-max %d gain %.3f->%.3f reg %d comp x%.2f clip %.2f%%>" s.effective_max
    s.desired_gain s.realised_gain s.register s.compensation
    (100. *. s.clipped_fraction)

type rig = {
  response : Response.t;
  exposure : float;
  noise_sigma : float;
  seed : int;
}

(* Exposure such that a white pixel at full backlight lands at relative
   radiance ~0.97: bright but unsaturated, as a photographer would
   meter it. *)
let calibrated_exposure (device : Display.Device.t) =
  let white_lum =
    Display.Panel.emitted_luminance device.Display.Device.panel
      ~backlight_register:255 ~image_level:255
  in
  0.97 /. white_lum

let default_rig device =
  {
    response = Response.s_curve;
    exposure = calibrated_exposure device;
    noise_sigma = 1.2;
    seed = 424242;
  }

let noiseless_rig device =
  {
    response = Response.linear;
    exposure = calibrated_exposure device;
    noise_sigma = 0.;
    seed = 0;
  }

(* The sensor sees panel radiance for the pixel's luma. Tabulating the
   256 possible lumas once per capture keeps the per-pixel cost at one
   table access. *)
let level_table rig (device : Display.Device.t) ~backlight_register =
  Array.init 256 (fun luma ->
      let radiance =
        Display.Panel.emitted_luminance device.Display.Device.panel
          ~backlight_register ~image_level:luma
        *. rig.exposure
      in
      Response.apply rig.response radiance)

let capture rig device ~backlight_register frame =
  let table = level_table rig device ~backlight_register in
  let rng = Image.Prng.create ~seed:rig.seed in
  let noisy v =
    if rig.noise_sigma <= 0. then v
    else
      Image.Pixel.clamp_channel
        (v + Image.Prng.gaussian_int rng ~mu:0. ~sigma:rig.noise_sigma)
  in
  Image.Raster.map
    (fun p -> Image.Pixel.gray (noisy table.(Image.Pixel.luminance p)))
    frame

let capture_histogram rig device ~backlight_register frame =
  let table = level_table rig device ~backlight_register in
  let rng = Image.Prng.create ~seed:rig.seed in
  let hist = Image.Histogram.create () in
  let plane = Image.Raster.luminance_plane frame in
  let noisy v =
    if rig.noise_sigma <= 0. then v
    else
      Image.Pixel.clamp_channel
        (v + Image.Prng.gaussian_int rng ~mu:0. ~sigma:rig.noise_sigma)
  in
  Bytes.iter
    (fun c -> Image.Histogram.add_sample hist (noisy table.(Char.code c)))
    plane;
  hist

let measure_patch rig device ~backlight ~white =
  let table = level_table rig device ~backlight_register:backlight in
  float_of_int table.(Image.Pixel.clamp_channel white)

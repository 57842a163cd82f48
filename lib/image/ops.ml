let contrast_enhance_inplace ~k img =
  if k < 0. then invalid_arg "Ops.contrast_enhance: negative gain";
  (* A 256-entry lookup table makes the per-pixel work a single index. *)
  let table = Array.init 256 (fun c ->
      Pixel.clamp_channel (int_of_float ((k *. float_of_int c) +. 0.5)))
  in
  (* The table is the same for all three channels, so every byte maps
     through it alike. *)
  let data = Raster.data img in
  for i = 0 to Bytes.length data - 1 do
    Bytes.unsafe_set data i
      (Char.unsafe_chr table.(Char.code (Bytes.unsafe_get data i)))
  done

let contrast_enhance ~k img =
  let out = Raster.copy img in
  contrast_enhance_inplace ~k out;
  out

let brightness_compensate ~delta img = Raster.map (Pixel.add delta) img

let clipped_fraction ~k img =
  (* [Pixel.is_clipped_by_scale k] on the raster bytes. *)
  let data = Raster.data img in
  let over o = k *. float_of_int (Char.code (Bytes.unsafe_get data o)) > 255.5 in
  let clipped = ref 0 in
  for i = 0 to Raster.pixel_count img - 1 do
    let o = 3 * i in
    if over o || over (o + 1) || over (o + 2) then incr clipped
  done;
  float_of_int !clipped /. float_of_int (Raster.pixel_count img)

let simulate_display ~backlight_gain img =
  if backlight_gain < 0. || backlight_gain > 1. then
    invalid_arg "Ops.simulate_display: gain out of [0, 1]";
  contrast_enhance ~k:backlight_gain img

let downsample ~factor img =
  if factor <= 0 then invalid_arg "Ops.downsample: factor must be positive";
  let w = Raster.width img and h = Raster.height img in
  if w mod factor <> 0 || h mod factor <> 0 then
    invalid_arg "Ops.downsample: dimensions not divisible by factor";
  let area = factor * factor in
  Raster.init ~width:(w / factor) ~height:(h / factor) (fun ~x ~y ->
      let sr = ref 0 and sg = ref 0 and sb = ref 0 in
      for dy = 0 to factor - 1 do
        for dx = 0 to factor - 1 do
          let p = Raster.get img ~x:((x * factor) + dx) ~y:((y * factor) + dy) in
          sr := !sr + p.Pixel.r;
          sg := !sg + p.Pixel.g;
          sb := !sb + p.Pixel.b
        done
      done;
      Pixel.v (!sr / area) (!sg / area) (!sb / area))

let absolute_difference a b =
  if Raster.width a <> Raster.width b || Raster.height a <> Raster.height b then
    invalid_arg "Ops.absolute_difference: dimension mismatch";
  Raster.init ~width:(Raster.width a) ~height:(Raster.height a) (fun ~x ~y ->
      let pa = Raster.get a ~x ~y and pb = Raster.get b ~x ~y in
      Pixel.v (abs (pa.Pixel.r - pb.Pixel.r)) (abs (pa.Pixel.g - pb.Pixel.g))
        (abs (pa.Pixel.b - pb.Pixel.b)))

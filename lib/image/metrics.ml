let check_dims name a b =
  if Raster.width a <> Raster.width b || Raster.height a <> Raster.height b
  then invalid_arg (name ^ ": dimension mismatch")

(* The kernels below run over the packed buffers of two images whose
   dimensions [check_dims] has matched, so both hold
   [3 * pixel_count] bytes and every index is in range. *)
let[@inline] sample d i = Char.code (Bytes.unsafe_get d i)

let squared_error a b =
  let da = Raster.data a and db = Raster.data b in
  let acc = ref 0 in
  for i = 0 to (3 * Raster.pixel_count a) - 1 do
    let d = sample da i - sample db i in
    acc := !acc + (d * d)
  done;
  !acc

let mse a b =
  check_dims "Metrics.mse" a b;
  float_of_int (squared_error a b) /. float_of_int (3 * Raster.pixel_count a)

let psnr_of_squared_error ~samples sse =
  let e = float_of_int sse /. float_of_int samples in
  if e <= 0. then infinity else 10. *. log10 (255. *. 255. /. e)

let psnr a b =
  check_dims "Metrics.psnr" a b;
  psnr_of_squared_error ~samples:(3 * Raster.pixel_count a) (squared_error a b)

let mean_absolute_error a b =
  check_dims "Metrics.mean_absolute_error" a b;
  let da = Raster.data a and db = Raster.data b in
  let acc = ref 0 in
  for i = 0 to (3 * Raster.pixel_count a) - 1 do
    acc := !acc + abs (sample da i - sample db i)
  done;
  float_of_int !acc /. float_of_int (3 * Raster.pixel_count a)

let ssim a b =
  check_dims "Metrics.ssim" a b;
  let w = Raster.width a and h = Raster.height a in
  if w < 8 || h < 8 then invalid_arg "Metrics.ssim: image smaller than the window";
  let pa = Raster.luminance_plane a and pb = Raster.luminance_plane b in
  let sample plane x y = float_of_int (Char.code (Bytes.get plane ((y * w) + x))) in
  let c1 = (0.01 *. 255.) ** 2. and c2 = (0.03 *. 255.) ** 2. in
  let window x0 y0 =
    let n = 64. in
    let sum_a = ref 0. and sum_b = ref 0. in
    let sum_aa = ref 0. and sum_bb = ref 0. and sum_ab = ref 0. in
    for dy = 0 to 7 do
      for dx = 0 to 7 do
        let va = sample pa (x0 + dx) (y0 + dy) and vb = sample pb (x0 + dx) (y0 + dy) in
        sum_a := !sum_a +. va;
        sum_b := !sum_b +. vb;
        sum_aa := !sum_aa +. (va *. va);
        sum_bb := !sum_bb +. (vb *. vb);
        sum_ab := !sum_ab +. (va *. vb)
      done
    done;
    let mu_a = !sum_a /. n and mu_b = !sum_b /. n in
    let var_a = (!sum_aa /. n) -. (mu_a *. mu_a) in
    let var_b = (!sum_bb /. n) -. (mu_b *. mu_b) in
    let cov = (!sum_ab /. n) -. (mu_a *. mu_b) in
    ((2. *. mu_a *. mu_b) +. c1)
    *. ((2. *. cov) +. c2)
    /. (((mu_a *. mu_a) +. (mu_b *. mu_b) +. c1) *. (var_a +. var_b +. c2))
  in
  let total = ref 0. and count = ref 0 in
  let y = ref 0 in
  while !y + 8 <= h do
    let x = ref 0 in
    while !x + 8 <= w do
      total := !total +. window !x !y;
      incr count;
      x := !x + 4
    done;
    y := !y + 4
  done;
  !total /. float_of_int !count

let max_absolute_error a b =
  check_dims "Metrics.max_absolute_error" a b;
  let da = Raster.data a and db = Raster.data b in
  let m = ref 0 in
  for i = 0 to (3 * Raster.pixel_count a) - 1 do
    m := max !m (abs (sample da i - sample db i))
  done;
  !m

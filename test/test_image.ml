(* Unit and property tests for the image substrate. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let float_eps = Alcotest.float 1e-9

let raster_gen ~max_dim =
  (* Small random rasters with varied content. *)
  let open QCheck2.Gen in
  let* width = 1 -- max_dim in
  let* height = 1 -- max_dim in
  let* seed = 0 -- 10_000 in
  let rng = Image.Prng.create ~seed in
  return
    (Image.Raster.init ~width ~height (fun ~x ~y ->
         ignore x;
         ignore y;
         Image.Pixel.v (Image.Prng.int rng 256) (Image.Prng.int rng 256)
           (Image.Prng.int rng 256)))

(* --- Pixel ------------------------------------------------------------ *)

let test_pixel_clamping () =
  check int "negative clamps to 0" 0 (Image.Pixel.v (-5) 0 0).Image.Pixel.r;
  check int "overflow clamps to 255" 255 (Image.Pixel.v 300 0 0).Image.Pixel.r;
  check int "in-range unchanged" 127 (Image.Pixel.v 127 0 0).Image.Pixel.r

let test_pixel_luminance_extremes () =
  check int "black has luma 0" 0 (Image.Pixel.luminance Image.Pixel.black);
  check int "white has luma 255" 255 (Image.Pixel.luminance Image.Pixel.white)

let test_pixel_luminance_gray_identity () =
  (* The fixed-point weights sum to 65536, so grays are exact. *)
  for l = 0 to 255 do
    check int
      (Printf.sprintf "gray %d luma" l)
      l
      (Image.Pixel.luminance (Image.Pixel.gray l))
  done

let test_pixel_luminance_weights () =
  (* Pure channels reflect the BT.601 weights. *)
  let red = Image.Pixel.luminance (Image.Pixel.v 255 0 0) in
  let green = Image.Pixel.luminance (Image.Pixel.v 0 255 0) in
  let blue = Image.Pixel.luminance (Image.Pixel.v 0 0 255) in
  check bool "green heaviest" true (green > red && red > blue);
  let sum = red + green + blue in
  check bool "weights sum to white (within rounding)" true
    (sum >= 254 && sum <= 256)

let test_pixel_scale_clips () =
  let p = Image.Pixel.v 200 10 10 in
  let scaled = Image.Pixel.scale 2. p in
  check int "saturates at 255" 255 scaled.Image.Pixel.r;
  check int "scales small channels" 20 scaled.Image.Pixel.g;
  check bool "detects clipping" true (Image.Pixel.is_clipped_by_scale 2. p);
  check bool "no clipping below threshold" false
    (Image.Pixel.is_clipped_by_scale 1.2 p)

let test_pixel_add () =
  let p = Image.Pixel.add 30 (Image.Pixel.v 240 100 0) in
  check int "clamps high" 255 p.Image.Pixel.r;
  check int "adds mid" 130 p.Image.Pixel.g;
  check int "adds low" 30 p.Image.Pixel.b;
  let q = Image.Pixel.add (-50) (Image.Pixel.v 40 100 200) in
  check int "clamps low" 0 q.Image.Pixel.r

let prop_scale_monotone =
  QCheck2.Test.make ~name:"pixel scale is monotone in k"
    QCheck2.Gen.(triple (0 -- 255) (float_bound_inclusive 2.) (float_bound_inclusive 2.))
    (fun (c, k1, k2) ->
      let k_lo = Float.min k1 k2 and k_hi = Float.max k1 k2 in
      let p = Image.Pixel.gray c in
      (Image.Pixel.scale k_lo p).Image.Pixel.r
      <= (Image.Pixel.scale k_hi p).Image.Pixel.r)

(* --- Raster ----------------------------------------------------------- *)

let test_raster_create_black () =
  let img = Image.Raster.create ~width:4 ~height:3 in
  check int "width" 4 (Image.Raster.width img);
  check int "height" 3 (Image.Raster.height img);
  check int "pixel count" 12 (Image.Raster.pixel_count img);
  Image.Raster.iter
    (fun ~x:_ ~y:_ p -> check bool "black" true (Image.Pixel.equal p Image.Pixel.black))
    img

let test_raster_bad_dimensions () =
  Alcotest.check_raises "zero width" (Invalid_argument
    "Raster.create: dimensions must be positive") (fun () ->
      ignore (Image.Raster.create ~width:0 ~height:3))

let test_raster_get_set_roundtrip () =
  let img = Image.Raster.create ~width:5 ~height:5 in
  let p = Image.Pixel.v 12 200 99 in
  Image.Raster.set img ~x:3 ~y:4 p;
  check bool "get returns set" true (Image.Pixel.equal p (Image.Raster.get img ~x:3 ~y:4));
  check bool "neighbour untouched" true
    (Image.Pixel.equal Image.Pixel.black (Image.Raster.get img ~x:2 ~y:4))

let test_raster_out_of_bounds () =
  let img = Image.Raster.create ~width:2 ~height:2 in
  Alcotest.check_raises "get oob" (Invalid_argument "Raster: out of bounds")
    (fun () -> ignore (Image.Raster.get img ~x:2 ~y:0));
  Alcotest.check_raises "set oob" (Invalid_argument "Raster: out of bounds")
    (fun () -> Image.Raster.set img ~x:0 ~y:(-1) Image.Pixel.white)

let test_raster_copy_independent () =
  let img = Image.Raster.create ~width:2 ~height:2 in
  let dup = Image.Raster.copy img in
  Image.Raster.set dup ~x:0 ~y:0 Image.Pixel.white;
  check bool "original unchanged" true
    (Image.Pixel.equal Image.Pixel.black (Image.Raster.get img ~x:0 ~y:0))

let test_raster_fill_and_mean () =
  let img = Image.Raster.create ~width:8 ~height:8 in
  Image.Raster.fill img (Image.Pixel.gray 77);
  check (Alcotest.float 1e-6) "mean luminance" 77. (Image.Raster.mean_luminance img);
  check int "max luminance" 77 (Image.Raster.max_luminance img)

let test_raster_luminance_plane () =
  let img = Image.Raster.init ~width:3 ~height:1 (fun ~x ~y ->
      ignore y;
      Image.Pixel.gray (x * 100))
  in
  let plane = Image.Raster.luminance_plane img in
  check int "plane length" 3 (Bytes.length plane);
  check int "first" 0 (Char.code (Bytes.get plane 0));
  check int "second" 100 (Char.code (Bytes.get plane 1));
  check int "third" 200 (Char.code (Bytes.get plane 2))

let prop_map_identity =
  QCheck2.Test.make ~name:"raster map with identity preserves equality"
    (raster_gen ~max_dim:12) (fun img ->
      Image.Raster.equal img (Image.Raster.map Fun.id img))

let prop_blit_equal =
  QCheck2.Test.make ~name:"raster blit copies exactly" (raster_gen ~max_dim:12)
    (fun img ->
      let dst =
        Image.Raster.create ~width:(Image.Raster.width img)
          ~height:(Image.Raster.height img)
      in
      Image.Raster.blit ~src:img ~dst;
      Image.Raster.equal img dst)

let prop_fold_counts_pixels =
  QCheck2.Test.make ~name:"raster fold visits every pixel once"
    (raster_gen ~max_dim:12) (fun img ->
      Image.Raster.fold (fun acc _ -> acc + 1) 0 img = Image.Raster.pixel_count img)

(* --- Histogram -------------------------------------------------------- *)

let test_histogram_of_raster_total () =
  let img = Image.Raster.create ~width:10 ~height:7 in
  let h = Image.Histogram.of_raster img in
  check int "total equals pixels" 70 (Image.Histogram.total h);
  check int "all in bin 0" 70 (Image.Histogram.count h 0)

let test_histogram_mean_range () =
  let h = Image.Histogram.create () in
  Image.Histogram.add_sample h 10;
  Image.Histogram.add_sample h 20;
  Image.Histogram.add_sample h 30;
  check (Alcotest.float 1e-9) "mean" 20. (Image.Histogram.mean h);
  check int "min" 10 (Image.Histogram.min_level h);
  check int "max" 30 (Image.Histogram.max_level h);
  check int "dynamic range" 20 (Image.Histogram.dynamic_range h)

let test_histogram_empty_raises () =
  let h = Image.Histogram.create () in
  Alcotest.check_raises "mean of empty"
    (Invalid_argument "Histogram.mean: empty histogram") (fun () ->
      ignore (Image.Histogram.mean h))

let test_histogram_clip_level_zero_loss () =
  let h = Image.Histogram.create () in
  List.iter (Image.Histogram.add_sample h) [ 5; 50; 200; 200; 255 ];
  check int "0%% loss keeps max" 255 (Image.Histogram.clip_level h ~allowed_loss:0.)

let test_histogram_clip_level_budget () =
  let h = Image.Histogram.create () in
  (* 90 dark pixels, 10 bright. *)
  for _ = 1 to 90 do Image.Histogram.add_sample h 40 done;
  for _ = 1 to 10 do Image.Histogram.add_sample h 250 done;
  check int "10%% loss clips the bright tail" 40
    (Image.Histogram.clip_level h ~allowed_loss:0.10);
  check int "9%% loss keeps the tail" 250
    (Image.Histogram.clip_level h ~allowed_loss:0.09);
  check int "100%% loss clips everything" 0
    (Image.Histogram.clip_level h ~allowed_loss:1.)

let test_histogram_samples_above () =
  let h = Image.Histogram.create () in
  List.iter (Image.Histogram.add_sample h) [ 0; 128; 128; 255 ];
  check int "above 127" 3 (Image.Histogram.samples_above h 127);
  check int "above 128" 1 (Image.Histogram.samples_above h 128);
  check int "above 255" 0 (Image.Histogram.samples_above h 255);
  check int "above -1 counts all" 4 (Image.Histogram.samples_above h (-1))

let test_histogram_merge () =
  let a = Image.Histogram.create () and b = Image.Histogram.create () in
  Image.Histogram.add_sample a 1;
  Image.Histogram.add_sample b 1;
  Image.Histogram.add_sample b 2;
  let m = Image.Histogram.merge a b in
  check int "merged total" 3 (Image.Histogram.total m);
  check int "merged bin 1" 2 (Image.Histogram.count m 1)

let test_histogram_distances_identity () =
  let h = Image.Histogram.create () in
  List.iter (Image.Histogram.add_sample h) [ 3; 99; 200 ];
  check float_eps "L1 to self" 0. (Image.Histogram.l1_distance h h);
  check float_eps "chi2 to self" 0. (Image.Histogram.chi_square h h);
  check float_eps "intersection with self" 1. (Image.Histogram.intersection h h)

let test_histogram_distance_disjoint () =
  let a = Image.Histogram.create () and b = Image.Histogram.create () in
  Image.Histogram.add_sample a 0;
  Image.Histogram.add_sample b 255;
  check float_eps "L1 disjoint" 2. (Image.Histogram.l1_distance a b);
  check float_eps "intersection disjoint" 0. (Image.Histogram.intersection a b)

let test_histogram_emd () =
  let shifted_by k =
    let h = Image.Histogram.create () in
    List.iter (fun l -> Image.Histogram.add_sample h (l + k)) [ 10; 20; 30; 40 ];
    h
  in
  let base = shifted_by 0 in
  check float_eps "EMD to self" 0. (Image.Histogram.earth_movers_distance base base);
  check float_eps "EMD of uniform +5 shift" 5.
    (Image.Histogram.earth_movers_distance base (shifted_by 5));
  (* Extremes: all mass moves the full range. *)
  let lo = Image.Histogram.create () and hi = Image.Histogram.create () in
  Image.Histogram.add_sample lo 0;
  Image.Histogram.add_sample hi 255;
  check float_eps "EMD of extremes" 255. (Image.Histogram.earth_movers_distance lo hi);
  (* EMD is robust where bin-wise L1 saturates: a one-level shift. *)
  check float_eps "one-level shift is EMD 1" 1.
    (Image.Histogram.earth_movers_distance base (shifted_by 1));
  check float_eps "but saturates L1" 2.
    (Image.Histogram.l1_distance base (shifted_by 1))

let test_histogram_percentile () =
  let h = Image.Histogram.create () in
  for l = 0 to 99 do Image.Histogram.add_sample h l done;
  check int "median" 49 (Image.Histogram.percentile_level h 0.5);
  check int "p100 = max" 99 (Image.Histogram.percentile_level h 1.)

let test_histogram_percentile_edges () =
  (* Regression: p = 0 used to return bin 0 even when level 0 held no
     samples; the floor of the distribution is its lowest populated
     level. *)
  let h = Image.Histogram.create () in
  for l = 40 to 99 do
    Image.Histogram.add_sample h l
  done;
  check int "p0 is the lowest populated level" 40
    (Image.Histogram.percentile_level h 0.);
  check int "p0 = min_level" (Image.Histogram.min_level h)
    (Image.Histogram.percentile_level h 0.);
  check int "p1 = max_level" (Image.Histogram.max_level h)
    (Image.Histogram.percentile_level h 1.);
  (* A single-bin histogram answers that bin at every percentile. *)
  let single = Image.Histogram.create () in
  Image.Histogram.add_sample single 137;
  List.iter
    (fun p ->
      check int
        (Printf.sprintf "single bin at p = %g" p)
        137
        (Image.Histogram.percentile_level single p))
    [ 0.; 0.25; 0.5; 1. ]

let test_histogram_of_counts_validation () =
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Histogram.of_counts: need 256 bins") (fun () ->
      ignore (Image.Histogram.of_counts [| 1; 2 |]))

let prop_histogram_mass_conserved =
  QCheck2.Test.make ~name:"histogram mass equals pixel count"
    (raster_gen ~max_dim:16) (fun img ->
      Image.Histogram.total (Image.Histogram.of_raster img)
      = Image.Raster.pixel_count img)

let prop_clip_level_respects_budget =
  QCheck2.Test.make ~name:"clip level respects loss budget"
    QCheck2.Gen.(pair (raster_gen ~max_dim:16) (float_bound_inclusive 1.))
    (fun (img, loss) ->
      let h = Image.Histogram.of_raster img in
      let level = Image.Histogram.clip_level h ~allowed_loss:loss in
      let lost = Image.Histogram.samples_above h level in
      float_of_int lost <= (loss *. float_of_int (Image.Histogram.total h)) +. 1e-9)

let prop_clip_level_is_tight =
  QCheck2.Test.make ~name:"clip level is the lowest admissible level"
    QCheck2.Gen.(pair (raster_gen ~max_dim:16) (float_bound_inclusive 0.5))
    (fun (img, loss) ->
      let h = Image.Histogram.of_raster img in
      let level = Image.Histogram.clip_level h ~allowed_loss:loss in
      level = 0
      || float_of_int (Image.Histogram.samples_above h (level - 1))
         > loss *. float_of_int (Image.Histogram.total h))

let prop_l1_symmetric =
  QCheck2.Test.make ~name:"histogram L1 distance is symmetric"
    QCheck2.Gen.(pair (raster_gen ~max_dim:10) (raster_gen ~max_dim:10))
    (fun (a, b) ->
      let ha = Image.Histogram.of_raster a and hb = Image.Histogram.of_raster b in
      abs_float
        (Image.Histogram.l1_distance ha hb -. Image.Histogram.l1_distance hb ha)
      < 1e-12)

(* --- Ops -------------------------------------------------------------- *)

let test_contrast_enhance_identity () =
  let img = Image.Raster.init ~width:4 ~height:4 (fun ~x ~y ->
      Image.Pixel.gray ((x + y) * 20))
  in
  check bool "k=1 is identity" true
    (Image.Raster.equal img (Image.Ops.contrast_enhance ~k:1. img))

let test_contrast_enhance_doubles () =
  let img = Image.Raster.create ~width:2 ~height:1 in
  Image.Raster.set img ~x:0 ~y:0 (Image.Pixel.gray 60);
  Image.Raster.set img ~x:1 ~y:0 (Image.Pixel.gray 200);
  let out = Image.Ops.contrast_enhance ~k:2. img in
  check int "doubles" 120 (Image.Raster.get out ~x:0 ~y:0).Image.Pixel.r;
  check int "saturates" 255 (Image.Raster.get out ~x:1 ~y:0).Image.Pixel.r

let test_clipped_fraction () =
  let img = Image.Raster.create ~width:10 ~height:1 in
  for x = 0 to 9 do
    Image.Raster.set img ~x ~y:0 (Image.Pixel.gray (if x < 3 then 200 else 50))
  done;
  check (Alcotest.float 1e-9) "three clip at k=2" 0.3
    (Image.Ops.clipped_fraction ~k:2. img)

let test_brightness_compensate () =
  let img = Image.Raster.create ~width:1 ~height:1 in
  Image.Raster.set img ~x:0 ~y:0 (Image.Pixel.v 250 100 0);
  let out = Image.Ops.brightness_compensate ~delta:20 img in
  let p = Image.Raster.get out ~x:0 ~y:0 in
  check int "r clamps" 255 p.Image.Pixel.r;
  check int "g adds" 120 p.Image.Pixel.g;
  check int "b adds" 20 p.Image.Pixel.b

let test_downsample_mean () =
  let img = Image.Raster.init ~width:4 ~height:4 (fun ~x ~y ->
      Image.Pixel.gray (if (x + y) mod 2 = 0 then 100 else 200))
  in
  let out = Image.Ops.downsample ~factor:2 img in
  check int "downsampled width" 2 (Image.Raster.width out);
  check int "block mean" 150 (Image.Raster.get out ~x:0 ~y:0).Image.Pixel.r

let test_downsample_bad_factor () =
  let img = Image.Raster.create ~width:4 ~height:4 in
  Alcotest.check_raises "indivisible"
    (Invalid_argument "Ops.downsample: dimensions not divisible by factor")
    (fun () -> ignore (Image.Ops.downsample ~factor:3 img))

let prop_contrast_matches_pixel_scale =
  QCheck2.Test.make ~name:"contrast enhance equals per-pixel scale"
    QCheck2.Gen.(pair (raster_gen ~max_dim:10) (float_bound_inclusive 3.))
    (fun (img, k) ->
      Image.Raster.equal
        (Image.Ops.contrast_enhance ~k img)
        (Image.Raster.map (Image.Pixel.scale k) img))

let prop_display_sim_darkens =
  QCheck2.Test.make ~name:"display simulation never brightens"
    QCheck2.Gen.(pair (raster_gen ~max_dim:10) (float_bound_inclusive 1.))
    (fun (img, gain) ->
      let out = Image.Ops.simulate_display ~backlight_gain:gain img in
      Image.Raster.fold (fun ok p -> ok && p.Image.Pixel.r <= 255) true out
      && Image.Raster.mean_luminance out <= Image.Raster.mean_luminance img +. 0.5)

(* --- Metrics ---------------------------------------------------------- *)

let test_metrics_identical () =
  let img = Image.Raster.init ~width:6 ~height:6 (fun ~x ~y ->
      Image.Pixel.gray ((x * y) mod 256))
  in
  check (Alcotest.float 1e-12) "mse 0" 0. (Image.Metrics.mse img img);
  check bool "psnr infinite" true (Image.Metrics.psnr img img = infinity);
  check int "max abs 0" 0 (Image.Metrics.max_absolute_error img img)

let test_metrics_known_mse () =
  let a = Image.Raster.create ~width:1 ~height:1 in
  let b = Image.Raster.create ~width:1 ~height:1 in
  Image.Raster.set b ~x:0 ~y:0 (Image.Pixel.v 3 0 0);
  (* One channel off by 3: mse = 9/3. *)
  check (Alcotest.float 1e-9) "mse" 3. (Image.Metrics.mse a b);
  check int "max abs" 3 (Image.Metrics.max_absolute_error a b)

let test_metrics_dimension_mismatch () =
  let a = Image.Raster.create ~width:2 ~height:2 in
  let b = Image.Raster.create ~width:3 ~height:2 in
  Alcotest.check_raises "mse mismatch"
    (Invalid_argument "Metrics.mse: dimension mismatch") (fun () ->
      ignore (Image.Metrics.mse a b))

let test_ssim_identical () =
  let img = Image.Raster.init ~width:16 ~height:16 (fun ~x ~y ->
      Image.Pixel.gray ((x * 16) + y))
  in
  check (Alcotest.float 1e-9) "ssim of identical" 1. (Image.Metrics.ssim img img)

let test_ssim_degrades_with_noise () =
  let img = Image.Raster.init ~width:32 ~height:32 (fun ~x ~y ->
      Image.Pixel.gray (((x + y) * 5) mod 256))
  in
  let noisy sigma =
    let out = Image.Raster.copy img in
    Image.Draw.add_noise out ~rng:(Image.Prng.create ~seed:3) ~sigma;
    out
  in
  let light = Image.Metrics.ssim img (noisy 3.) in
  let heavy = Image.Metrics.ssim img (noisy 30.) in
  check bool "light noise near 1" true (light > 0.9);
  check bool "heavy noise lower" true (heavy < light)

let test_ssim_structure_sensitive () =
  (* A constant brightness offset hurts SSIM far less than scrambling
     the structure at equal MSE. *)
  let img = Image.Raster.init ~width:32 ~height:32 (fun ~x ~y ->
      Image.Pixel.gray (100 + (((x / 4) + (y / 4)) mod 2 * 40)))
  in
  let shifted = Image.Raster.map (Image.Pixel.add 20) img in
  let rng = Image.Prng.create ~seed:8 in
  let scrambled =
    Image.Raster.map
      (fun p -> if Image.Prng.bool rng then Image.Pixel.add 20 p else Image.Pixel.add (-20) p)
      img
  in
  check bool "comparable MSE" true
    (abs_float (Image.Metrics.mse img shifted -. Image.Metrics.mse img scrambled)
     < 0.3 *. Image.Metrics.mse img shifted);
  check bool "shift tolerated more than scramble" true
    (Image.Metrics.ssim img shifted > Image.Metrics.ssim img scrambled)

let test_ssim_too_small () =
  let img = Image.Raster.create ~width:4 ~height:4 in
  Alcotest.check_raises "below window"
    (Invalid_argument "Metrics.ssim: image smaller than the window") (fun () ->
      ignore (Image.Metrics.ssim img img))

let prop_psnr_decreases_with_noise =
  QCheck2.Test.make ~name:"stronger noise lowers PSNR" (raster_gen ~max_dim:12)
    (fun img ->
      let noisy sigma =
        let out = Image.Raster.copy img in
        Image.Draw.add_noise out ~rng:(Image.Prng.create ~seed:7) ~sigma;
        out
      in
      Image.Metrics.psnr img (noisy 2.) >= Image.Metrics.psnr img (noisy 25.))

(* --- Draw ------------------------------------------------------------- *)

let test_draw_gradient_endpoints () =
  let img = Image.Raster.create ~width:3 ~height:5 in
  Image.Draw.fill_vertical_gradient img ~top:(Image.Pixel.gray 10)
    ~bottom:(Image.Pixel.gray 250);
  check int "top row" 10 (Image.Raster.get img ~x:1 ~y:0).Image.Pixel.r;
  check int "bottom row" 250 (Image.Raster.get img ~x:1 ~y:4).Image.Pixel.r

let test_draw_rect_cropped () =
  let img = Image.Raster.create ~width:4 ~height:4 in
  Image.Draw.rect img ~x:2 ~y:2 ~w:10 ~h:10 Image.Pixel.white;
  check bool "inside painted" true
    (Image.Pixel.equal Image.Pixel.white (Image.Raster.get img ~x:3 ~y:3));
  check bool "outside untouched" true
    (Image.Pixel.equal Image.Pixel.black (Image.Raster.get img ~x:0 ~y:0))

let test_draw_disc_radius () =
  let img = Image.Raster.create ~width:9 ~height:9 in
  Image.Draw.disc img ~cx:4 ~cy:4 ~radius:2 Image.Pixel.white;
  check bool "centre painted" true
    (Image.Pixel.equal Image.Pixel.white (Image.Raster.get img ~x:4 ~y:4));
  check bool "corner untouched" true
    (Image.Pixel.equal Image.Pixel.black (Image.Raster.get img ~x:0 ~y:0));
  check bool "just outside radius untouched" true
    (Image.Pixel.equal Image.Pixel.black (Image.Raster.get img ~x:7 ~y:4))

let test_draw_glow_brightens_centre () =
  let img = Image.Raster.create ~width:9 ~height:9 in
  Image.Draw.glow img ~cx:4 ~cy:4 ~radius:3 ~intensity:100;
  check int "centre boosted" 100 (Image.Raster.get img ~x:4 ~y:4).Image.Pixel.r;
  check bool "falloff" true
    ((Image.Raster.get img ~x:6 ~y:4).Image.Pixel.r < 100)

let test_draw_vignette_darkens_corners () =
  let img = Image.Raster.create ~width:9 ~height:9 in
  Image.Raster.fill img (Image.Pixel.gray 200);
  Image.Draw.vignette img ~strength:0.5;
  let corner = (Image.Raster.get img ~x:0 ~y:0).Image.Pixel.r in
  let centre = (Image.Raster.get img ~x:4 ~y:4).Image.Pixel.r in
  check bool "corner darker than centre" true (corner < centre);
  check int "centre untouched" 200 centre

let test_channel_max_plane () =
  let img = Image.Raster.create ~width:2 ~height:1 in
  Image.Raster.set img ~x:0 ~y:0 (Image.Pixel.v 220 30 10);
  Image.Raster.set img ~x:1 ~y:0 (Image.Pixel.v 5 90 40);
  let plane = Image.Raster.channel_max_plane img in
  check int "red pixel channel max" 220 (Char.code (Bytes.get plane 0));
  check int "green pixel channel max" 90 (Char.code (Bytes.get plane 1))

let prop_channel_max_predicts_clipping =
  QCheck2.Test.make ~name:"channel-max histogram predicts clipping exactly"
    QCheck2.Gen.(pair (raster_gen ~max_dim:12) (oneofl [ 1.3; 1.7; 2.2; 2.9 ]))
    (fun (img, k) ->
      let hist =
        Image.Histogram.of_luminance_plane (Image.Raster.channel_max_plane img)
      in
      (* A pixel clips when k*c > 255.5 (see Pixel.is_clipped_by_scale),
         i.e. when c exceeds floor(255.5/k). *)
      let threshold = int_of_float (255.5 /. k) in
      let predicted =
        float_of_int (Image.Histogram.samples_above hist threshold)
        /. float_of_int (Image.Histogram.total hist)
      in
      abs_float (predicted -. Image.Ops.clipped_fraction ~k img) < 1e-9)

(* --- Ppm -------------------------------------------------------------- *)

let test_ppm_roundtrip () =
  let rng = Image.Prng.create ~seed:55 in
  let img = Image.Raster.init ~width:7 ~height:5 (fun ~x:_ ~y:_ ->
      Image.Pixel.v (Image.Prng.int rng 256) (Image.Prng.int rng 256)
        (Image.Prng.int rng 256))
  in
  (match Image.Ppm.of_string (Image.Ppm.to_string img) with
  | Ok back -> check bool "roundtrip exact" true (Image.Raster.equal img back)
  | Error e -> Alcotest.fail e)

let test_ppm_header_comments () =
  let img = Image.Raster.create ~width:2 ~height:2 in
  Image.Raster.fill img (Image.Pixel.gray 9);
  let serialised = Image.Ppm.to_string img in
  (* Inject a comment line after the magic. *)
  let with_comment =
    "P6\n# a viewer comment\n" ^ String.sub serialised 3 (String.length serialised - 3)
  in
  match Image.Ppm.of_string with_comment with
  | Ok back -> check bool "comments skipped" true (Image.Raster.equal img back)
  | Error e -> Alcotest.fail e

let test_ppm_rejects_malformed () =
  check bool "garbage" true (Result.is_error (Image.Ppm.of_string "not a ppm"));
  check bool "wrong magic" true (Result.is_error (Image.Ppm.of_string "P3\n1 1\n255\n..."));
  let img = Image.Raster.create ~width:4 ~height:4 in
  let valid = Image.Ppm.to_string img in
  let truncated = String.sub valid 0 (String.length valid - 5) in
  check bool "truncated pixels" true (Result.is_error (Image.Ppm.of_string truncated))

let test_ppm_file_io () =
  let img = Image.Raster.init ~width:6 ~height:4 (fun ~x ~y ->
      Image.Pixel.gray ((x * 40) + y))
  in
  let path = Filename.temp_file "annotation-power" ".ppm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Image.Ppm.write ~path img;
      match Image.Ppm.read ~path with
      | Ok back -> check bool "file roundtrip" true (Image.Raster.equal img back)
      | Error e -> Alcotest.fail e);
  check bool "missing file is an error" true
    (Result.is_error (Image.Ppm.read ~path:"/nonexistent/nope.ppm"))

(* --- Roi -------------------------------------------------------------- *)

let test_roi_membership () =
  let roi = Image.Roi.of_rects [ { Image.Roi.x = 2; y = 3; w = 4; h = 2 } ] in
  check bool "inside" true (Image.Roi.contains roi ~x:2 ~y:3);
  check bool "inside far corner" true (Image.Roi.contains roi ~x:5 ~y:4);
  check bool "outside right" false (Image.Roi.contains roi ~x:6 ~y:3);
  check bool "outside below" false (Image.Roi.contains roi ~x:2 ~y:5);
  check bool "empty contains nothing" false (Image.Roi.contains Image.Roi.empty ~x:0 ~y:0)

let test_roi_pixel_count_overlap () =
  (* Two overlapping rects: overlap counted once. *)
  let roi =
    Image.Roi.of_rects
      [
        { Image.Roi.x = 0; y = 0; w = 4; h = 4 };
        { Image.Roi.x = 2; y = 2; w = 4; h = 4 };
      ]
  in
  check int "union size" 28 (Image.Roi.pixel_count roi ~width:10 ~height:10)

let test_roi_center_band () =
  let roi = Image.Roi.center_band ~width:10 ~height:10 ~fraction:0.4 in
  check int "band pixels" 40 (Image.Roi.pixel_count roi ~width:10 ~height:10);
  check bool "centre row inside" true (Image.Roi.contains roi ~x:5 ~y:5);
  check bool "top row outside" false (Image.Roi.contains roi ~x:5 ~y:0)

let test_roi_split_histograms () =
  let img = Image.Raster.create ~width:4 ~height:4 in
  Image.Raster.fill img (Image.Pixel.gray 50);
  Image.Raster.set img ~x:0 ~y:0 (Image.Pixel.gray 200);
  let roi = Image.Roi.of_rects [ { Image.Roi.x = 0; y = 0; w = 2; h = 2 } ] in
  let inside = Image.Histogram.create () and outside = Image.Histogram.create () in
  Image.Roi.split_histograms roi img ~inside ~outside;
  check int "inside total" 4 (Image.Histogram.total inside);
  check int "outside total" 12 (Image.Histogram.total outside);
  check int "bright pixel in inside" 1 (Image.Histogram.count inside 200);
  check int "no bright pixel outside" 0 (Image.Histogram.count outside 200)

let test_roi_validation () =
  Alcotest.check_raises "negative rect"
    (Invalid_argument "Roi.of_rects: negative dimensions") (fun () ->
      ignore (Image.Roi.of_rects [ { Image.Roi.x = 0; y = 0; w = -1; h = 1 } ]))

(* --- Prng ------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Image.Prng.create ~seed:9 and b = Image.Prng.create ~seed:9 in
  for _ = 1 to 100 do
    check bool "same stream" true (Image.Prng.bits64 a = Image.Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Image.Prng.create ~seed:1 and b = Image.Prng.create ~seed:2 in
  check bool "different seeds differ" true (Image.Prng.bits64 a <> Image.Prng.bits64 b)

let test_prng_int_bounds () =
  let rng = Image.Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Image.Prng.int rng 7 in
    check bool "in range" true (v >= 0 && v < 7)
  done

let test_prng_gaussian_moments () =
  let rng = Image.Prng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let v = Image.Prng.gaussian rng ~mu:10. ~sigma:3. in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  check bool "mean near 10" true (abs_float (mean -. 10.) < 0.2);
  check bool "variance near 9" true (abs_float (var -. 9.) < 0.5)

(* [gaussian_int] is the truncated [gaussian] draw by draw: the same
   double, so the same int, and the generators stay in step. *)
let test_prng_gaussian_int () =
  List.iter
    (fun (seed, mu, sigma) ->
      let a = Image.Prng.create ~seed and b = Image.Prng.create ~seed in
      for i = 1 to 5_000 do
        check int
          (Printf.sprintf "seed %d draw %d" seed i)
          (int_of_float (Image.Prng.gaussian a ~mu ~sigma))
          (Image.Prng.gaussian_int b ~mu ~sigma)
      done;
      check bool "generators in step" true
        (Int64.equal (Image.Prng.bits64 a) (Image.Prng.bits64 b)))
    [ (1, 0., 2.); (42, 0., 25.); (-9, 3.5, 0.75) ]

(* Noise draws its per-pixel offset unboxed: a noisy 96x72 frame
   allocates nothing. *)
let test_draw_add_noise_allocates_nothing () =
  let img = Image.Raster.create ~width:96 ~height:72 in
  Image.Raster.fill img (Image.Pixel.gray 128);
  let rng = Image.Prng.create ~seed:3 in
  Image.Draw.add_noise img ~rng ~sigma:4.;
  let before = Gc.minor_words () in
  Image.Draw.add_noise img ~rng ~sigma:4.;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "minor words" 0. words

(* --- Golden PRNG sequence --------------------------------------------- *)

(* MD5 of the first draws of [bits64], [int], [float], [gaussian] and
   [split] for three seeds, floats by their bit patterns. Taken before
   the generator's state was unboxed; any change to a drawn bit moves
   it. *)
let prng_sequence_digest () =
  let buf = Buffer.create 65536 in
  let add64 v = Buffer.add_string buf (Printf.sprintf "%Lx;" v) in
  List.iter
    (fun seed ->
      let rng = Image.Prng.create ~seed in
      for i = 1 to 200 do
        add64 (Image.Prng.bits64 rng);
        Buffer.add_string buf (Printf.sprintf "%d;" (Image.Prng.int rng (1 + (i * 37))));
        add64 (Int64.bits_of_float (Image.Prng.float rng (float_of_int i)));
        add64
          (Int64.bits_of_float
             (Image.Prng.gaussian rng ~mu:(float_of_int i) ~sigma:3.5))
      done;
      let child = Image.Prng.split rng in
      add64 (Image.Prng.bits64 child);
      add64 (Image.Prng.bits64 rng))
    [ 0; 42; -7_000_003 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_prng_golden () =
  check Alcotest.string "sequence digest" "bd99becc4da67788c46ccc1a7d03ac66" (prng_sequence_digest ())

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_scale_monotone;
      prop_map_identity;
      prop_blit_equal;
      prop_fold_counts_pixels;
      prop_histogram_mass_conserved;
      prop_clip_level_respects_budget;
      prop_clip_level_is_tight;
      prop_l1_symmetric;
      prop_contrast_matches_pixel_scale;
      prop_display_sim_darkens;
      prop_psnr_decreases_with_noise;
      prop_channel_max_predicts_clipping;
    ]

let () =
  Alcotest.run "image"
    [
      ( "pixel",
        [
          Alcotest.test_case "clamping" `Quick test_pixel_clamping;
          Alcotest.test_case "luminance extremes" `Quick test_pixel_luminance_extremes;
          Alcotest.test_case "gray identity" `Quick test_pixel_luminance_gray_identity;
          Alcotest.test_case "bt601 weights" `Quick test_pixel_luminance_weights;
          Alcotest.test_case "scale clips" `Quick test_pixel_scale_clips;
          Alcotest.test_case "brightness add" `Quick test_pixel_add;
        ] );
      ( "raster",
        [
          Alcotest.test_case "create black" `Quick test_raster_create_black;
          Alcotest.test_case "bad dimensions" `Quick test_raster_bad_dimensions;
          Alcotest.test_case "get/set roundtrip" `Quick test_raster_get_set_roundtrip;
          Alcotest.test_case "out of bounds" `Quick test_raster_out_of_bounds;
          Alcotest.test_case "copy independence" `Quick test_raster_copy_independent;
          Alcotest.test_case "fill and mean" `Quick test_raster_fill_and_mean;
          Alcotest.test_case "luminance plane" `Quick test_raster_luminance_plane;
          Alcotest.test_case "channel max plane" `Quick test_channel_max_plane;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "total" `Quick test_histogram_of_raster_total;
          Alcotest.test_case "mean and range" `Quick test_histogram_mean_range;
          Alcotest.test_case "empty raises" `Quick test_histogram_empty_raises;
          Alcotest.test_case "clip level lossless" `Quick test_histogram_clip_level_zero_loss;
          Alcotest.test_case "clip level budget" `Quick test_histogram_clip_level_budget;
          Alcotest.test_case "samples above" `Quick test_histogram_samples_above;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "distance identity" `Quick test_histogram_distances_identity;
          Alcotest.test_case "distance disjoint" `Quick test_histogram_distance_disjoint;
          Alcotest.test_case "earth mover's distance" `Quick test_histogram_emd;
          Alcotest.test_case "percentile" `Quick test_histogram_percentile;
          Alcotest.test_case "percentile edges" `Quick
            test_histogram_percentile_edges;
          Alcotest.test_case "of_counts validation" `Quick test_histogram_of_counts_validation;
        ] );
      ( "ops",
        [
          Alcotest.test_case "identity gain" `Quick test_contrast_enhance_identity;
          Alcotest.test_case "doubling" `Quick test_contrast_enhance_doubles;
          Alcotest.test_case "clipped fraction" `Quick test_clipped_fraction;
          Alcotest.test_case "brightness compensate" `Quick test_brightness_compensate;
          Alcotest.test_case "downsample mean" `Quick test_downsample_mean;
          Alcotest.test_case "downsample bad factor" `Quick test_downsample_bad_factor;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "identical" `Quick test_metrics_identical;
          Alcotest.test_case "known mse" `Quick test_metrics_known_mse;
          Alcotest.test_case "dimension mismatch" `Quick test_metrics_dimension_mismatch;
          Alcotest.test_case "ssim identical" `Quick test_ssim_identical;
          Alcotest.test_case "ssim vs noise" `Quick test_ssim_degrades_with_noise;
          Alcotest.test_case "ssim structure" `Quick test_ssim_structure_sensitive;
          Alcotest.test_case "ssim window size" `Quick test_ssim_too_small;
        ] );
      ( "draw",
        [
          Alcotest.test_case "gradient endpoints" `Quick test_draw_gradient_endpoints;
          Alcotest.test_case "rect cropping" `Quick test_draw_rect_cropped;
          Alcotest.test_case "disc radius" `Quick test_draw_disc_radius;
          Alcotest.test_case "glow centre" `Quick test_draw_glow_brightens_centre;
          Alcotest.test_case "vignette corners" `Quick test_draw_vignette_darkens_corners;
          Alcotest.test_case "noise allocates nothing" `Quick
            test_draw_add_noise_allocates_nothing;
        ] );
      ( "ppm",
        [
          Alcotest.test_case "roundtrip" `Quick test_ppm_roundtrip;
          Alcotest.test_case "header comments" `Quick test_ppm_header_comments;
          Alcotest.test_case "rejects malformed" `Quick test_ppm_rejects_malformed;
          Alcotest.test_case "file io" `Quick test_ppm_file_io;
        ] );
      ( "roi",
        [
          Alcotest.test_case "membership" `Quick test_roi_membership;
          Alcotest.test_case "overlap counting" `Quick test_roi_pixel_count_overlap;
          Alcotest.test_case "center band" `Quick test_roi_center_band;
          Alcotest.test_case "split histograms" `Quick test_roi_split_histograms;
          Alcotest.test_case "validation" `Quick test_roi_validation;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed separation" `Quick test_prng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "golden sequence" `Quick test_prng_golden;
          Alcotest.test_case "gaussian_int truncates gaussian" `Quick
            test_prng_gaussian_int;
        ] );
      ("properties", qtests);
    ]

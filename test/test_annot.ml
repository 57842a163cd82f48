(* Tests for the paper's core contribution: quality levels, scene
   detection, the backlight solver, annotation tracks, the binary
   encoding and the full annotator pipeline. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let device = Display.Device.ipaq_h5555

let histogram_of_levels levels =
  let h = Image.Histogram.create () in
  List.iter (Image.Histogram.add_sample h) levels;
  h

(* --- Quality_level ------------------------------------------------------ *)

let test_quality_grid () =
  check int "five levels" 5 (List.length Annotation.Quality_level.standard_grid);
  Alcotest.(check (list (float 1e-12)))
    "paper budgets"
    [ 0.; 0.05; 0.10; 0.15; 0.20 ]
    (List.map Annotation.Quality_level.allowed_loss Annotation.Quality_level.standard_grid)

let test_quality_of_percent () =
  check bool "10 maps to Loss_10" true
    (Annotation.Quality_level.of_percent 10. = Ok Annotation.Quality_level.Loss_10);
  check bool "7 maps to custom" true
    (match Annotation.Quality_level.of_percent 7. with
    | Ok (Annotation.Quality_level.Custom f) -> abs_float (f -. 0.07) < 1e-12
    | _ -> false);
  List.iter
    (fun p ->
      check bool (Printf.sprintf "%g rejected" p) true
        (Result.is_error (Annotation.Quality_level.of_percent p)))
    [ 150.; -5.; 100.5; Float.nan; Float.infinity ];
  check bool "100 accepted" true
    (Annotation.Quality_level.of_percent 100. = Ok (Annotation.Quality_level.Custom 1.))

let test_quality_of_permille () =
  let module Q = Annotation.Quality_level in
  check bool "grid" true
    (List.map Q.of_permille [ 0; 50; 100; 150; 200 ] = List.map Result.ok Q.standard_grid);
  check bool "123 is custom" true (Q.of_permille 123 = Ok (Q.Custom 0.123));
  check bool "1000 accepted" true (Q.of_permille 1000 = Ok (Q.Custom 1.));
  Alcotest.(check (result reject string))
    "1001" (Error "quality 1001 permille exceeds 1000") (Q.of_permille 1001);
  check bool "negative" true (Result.is_error (Q.of_permille (-1)))

let test_quality_labels () =
  Alcotest.(check (list string))
    "labels"
    [ "0%"; "5%"; "10%"; "15%"; "20%" ]
    (List.map Annotation.Quality_level.label Annotation.Quality_level.standard_grid)

let test_quality_custom_validation () =
  Alcotest.check_raises "loss above 1"
    (Invalid_argument "Quality_level: custom loss out of [0, 1]") (fun () ->
      ignore (Annotation.Quality_level.allowed_loss (Annotation.Quality_level.Custom 1.5)))

(* --- Scene_detect ------------------------------------------------------- *)

let test_scene_single_scene () =
  let track = Array.make 20 100 in
  let scenes = Annotation.Scene_detect.segment Annotation.Scene_detect.default_params track in
  check int "one scene" 1 (List.length scenes);
  (match scenes with
  | [ s ] ->
    check int "starts at 0" 0 s.Annotation.Scene_detect.first;
    check int "ends at last" 19 s.Annotation.Scene_detect.last
  | _ -> Alcotest.fail "expected one scene")

let test_scene_detects_cut () =
  (* 10 dark frames then 10 bright frames: one cut. *)
  let track = Array.init 20 (fun i -> if i < 10 then 50 else 200) in
  let scenes = Annotation.Scene_detect.segment Annotation.Scene_detect.default_params track in
  check int "two scenes" 2 (List.length scenes);
  (match scenes with
  | [ a; b ] ->
    check int "cut position" 9 a.Annotation.Scene_detect.last;
    check int "second starts" 10 b.Annotation.Scene_detect.first
  | _ -> Alcotest.fail "expected two scenes")

let test_scene_threshold_hysteresis () =
  (* A 5% wobble must not trigger a cut at the 10% threshold. *)
  let track = Array.init 30 (fun i -> if i mod 2 = 0 then 200 else 192) in
  let scenes = Annotation.Scene_detect.segment Annotation.Scene_detect.default_params track in
  check int "wobble ignored" 1 (List.length scenes)

let test_scene_min_interval_suppresses_flicker () =
  (* Alternating black/white every frame: without the minimum interval
     this would cut every frame; with it, scenes last at least
     min_scene_frames. *)
  let track = Array.init 24 (fun i -> if i mod 2 = 0 then 20 else 250) in
  let params =
    {
      Annotation.Scene_detect.change_threshold = 0.10;
      min_scene_frames = 6;
      mean_change_threshold = infinity;
    }
  in
  let scenes = Annotation.Scene_detect.segment params track in
  List.iter
    (fun s ->
      let len = s.Annotation.Scene_detect.last - s.Annotation.Scene_detect.first + 1 in
      (* The final scene may be a remainder shorter than the interval. *)
      if s.Annotation.Scene_detect.last <> 23 then
        check bool "scene respects min length" true (len >= 6))
    scenes

let test_scene_per_frame_mode () =
  let track = Array.make 7 123 in
  let scenes = Annotation.Scene_detect.segment Annotation.Scene_detect.per_frame_params track in
  check int "every frame its own scene" 7 (List.length scenes);
  check int "switches" 6 (Annotation.Scene_detect.switches scenes)

let test_scene_empty_track () =
  check int "no scenes for empty track" 0
    (List.length (Annotation.Scene_detect.segment Annotation.Scene_detect.default_params [||]))

let test_scene_max () =
  let track = [| 10; 50; 30 |] in
  let s = { Annotation.Scene_detect.first = 0; last = 2 } in
  check int "scene max" 50 (Annotation.Scene_detect.scene_max track s)

let test_scene_params_validation () =
  Alcotest.check_raises "bad min length"
    (Invalid_argument "Scene_detect: min scene length must be at least 1") (fun () ->
      ignore
        (Annotation.Scene_detect.segment
           {
             Annotation.Scene_detect.change_threshold = 0.1;
             min_scene_frames = 0;
             mean_change_threshold = infinity;
           }
           [| 1 |]))

let prop_scene_partition =
  QCheck2.Test.make ~name:"scene detection yields a partition"
    QCheck2.Gen.(
      pair
        (array_size (1 -- 60) (0 -- 255))
        (pair (float_bound_inclusive 0.5) (1 -- 10)))
    (fun (track, (threshold, min_frames)) ->
      let params =
        {
          Annotation.Scene_detect.change_threshold = threshold;
          min_scene_frames = min_frames;
          mean_change_threshold = infinity;
        }
      in
      let scenes = Annotation.Scene_detect.segment params track in
      let rec covers expected = function
        | [] -> expected = Array.length track
        | s :: rest ->
          s.Annotation.Scene_detect.first = expected
          && s.Annotation.Scene_detect.last >= s.Annotation.Scene_detect.first
          && covers (s.Annotation.Scene_detect.last + 1) rest
      in
      covers 0 scenes)

(* --- Backlight_solver --------------------------------------------------- *)

let test_solver_bright_scene_no_dimming () =
  let hist = histogram_of_levels (List.init 100 (fun _ -> 255)) in
  let sol = Annotation.Backlight_solver.solve ~device ~quality:Annotation.Quality_level.Lossless hist in
  check int "effective max is 255" 255 sol.Annotation.Backlight_solver.effective_max;
  check int "full register" 255 sol.Annotation.Backlight_solver.register;
  check (Alcotest.float 1e-9) "no compensation" 1. sol.Annotation.Backlight_solver.compensation

let test_solver_dark_scene_dims () =
  let hist = histogram_of_levels (List.init 100 (fun _ -> 60)) in
  let sol = Annotation.Backlight_solver.solve ~device ~quality:Annotation.Quality_level.Lossless hist in
  check int "effective max 60" 60 sol.Annotation.Backlight_solver.effective_max;
  check bool "register well below full" true (sol.Annotation.Backlight_solver.register < 128);
  check bool "compensates upward" true (sol.Annotation.Backlight_solver.compensation > 1.)

let test_solver_clipping_budget_used () =
  (* 95 pixels at 80, 5 bright outliers at 250. *)
  let hist =
    histogram_of_levels
      (List.init 95 (fun _ -> 80) @ List.init 5 (fun _ -> 250))
  in
  let lossless =
    Annotation.Backlight_solver.solve ~device ~quality:Annotation.Quality_level.Lossless hist
  in
  let lossy =
    Annotation.Backlight_solver.solve ~device ~quality:Annotation.Quality_level.Loss_5 hist
  in
  check int "lossless keeps outliers" 250 lossless.Annotation.Backlight_solver.effective_max;
  check int "5%% budget clips outliers" 80 lossy.Annotation.Backlight_solver.effective_max;
  check bool "budget honoured" true
    (lossy.Annotation.Backlight_solver.clipped_fraction <= 0.05 +. 1e-9);
  check bool "lossy register lower" true
    (lossy.Annotation.Backlight_solver.register < lossless.Annotation.Backlight_solver.register)

let test_solver_black_scene () =
  let hist = histogram_of_levels (List.init 50 (fun _ -> 0)) in
  let sol = Annotation.Backlight_solver.solve ~device ~quality:Annotation.Quality_level.Lossless hist in
  check int "effective max 0" 0 sol.Annotation.Backlight_solver.effective_max;
  check (Alcotest.float 1e-9) "no compensation for black" 1.
    sol.Annotation.Backlight_solver.compensation

let test_solver_realised_gain_covers_desired () =
  let hist = histogram_of_levels [ 10; 90; 130; 200; 200 ] in
  List.iter
    (fun q ->
      let sol = Annotation.Backlight_solver.solve ~device ~quality:q hist in
      check bool "realised >= desired" true
        (sol.Annotation.Backlight_solver.realised_gain
         >= sol.Annotation.Backlight_solver.desired_gain -. 1e-12))
    Annotation.Quality_level.standard_grid

let test_solver_compensation_never_overclips () =
  (* compensation * realised gain <= 1 + rounding: brightening never
     exceeds what the dimmed backlight calls for. *)
  let hist = histogram_of_levels [ 40; 80; 120; 160; 230 ] in
  List.iter
    (fun q ->
      let sol = Annotation.Backlight_solver.solve ~device ~quality:q hist in
      check bool "k * g <= 1" true
        (sol.Annotation.Backlight_solver.compensation
         *. sol.Annotation.Backlight_solver.realised_gain
         <= 1. +. 1e-9))
    Annotation.Quality_level.standard_grid

let prop_solver_monotone_in_quality =
  QCheck2.Test.make ~name:"register is non-increasing in allowed loss"
    QCheck2.Gen.(array_size (10 -- 60) (0 -- 255))
    (fun levels ->
      let hist = histogram_of_levels (Array.to_list levels) in
      let registers =
        List.map
          (fun q -> (Annotation.Backlight_solver.solve ~device ~quality:q hist).Annotation.Backlight_solver.register)
          Annotation.Quality_level.standard_grid
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | _ -> true
      in
      non_increasing registers)

let prop_solver_respects_budget =
  QCheck2.Test.make ~name:"predicted clipping within budget"
    QCheck2.Gen.(pair (array_size (10 -- 60) (0 -- 255)) (float_bound_inclusive 0.3))
    (fun (levels, loss) ->
      let hist = histogram_of_levels (Array.to_list levels) in
      let q = Annotation.Quality_level.Custom loss in
      let sol = Annotation.Backlight_solver.solve ~device ~quality:q hist in
      sol.Annotation.Backlight_solver.clipped_fraction <= loss +. 1e-9)

(* --- Operator ------------------------------------------------------------ *)

let test_operator_contrast_exact_when_lossless () =
  (* With no clipping, contrast enhancement preserves every level up to
     register rounding. *)
  let hist = histogram_of_levels [ 20; 60; 60; 100; 140 ] in
  let sol =
    Annotation.Operator.solve ~device ~quality:Annotation.Quality_level.Lossless
      Annotation.Operator.Contrast_enhancement hist
  in
  check bool
    (Format.asprintf "error tiny: %a" Annotation.Operator.pp sol)
    true
    (sol.Annotation.Operator.mean_error < 0.01)

let test_operator_brightness_has_residual () =
  (* A spread of levels: the additive offset cannot restore them all. *)
  let hist = histogram_of_levels [ 10; 40; 80; 120; 160 ] in
  let contrast =
    Annotation.Operator.solve ~device ~quality:Annotation.Quality_level.Lossless
      Annotation.Operator.Contrast_enhancement hist
  in
  let brightness =
    Annotation.Operator.solve ~device ~quality:Annotation.Quality_level.Lossless
      Annotation.Operator.Brightness_compensation hist
  in
  check bool "contrast strictly more faithful" true
    (contrast.Annotation.Operator.mean_error < brightness.Annotation.Operator.mean_error)

let test_operator_brightness_respects_budget () =
  let hist =
    histogram_of_levels (List.init 95 (fun _ -> 70) @ List.init 5 (fun _ -> 240))
  in
  let sol =
    Annotation.Operator.solve ~device ~quality:Annotation.Quality_level.Loss_5
      Annotation.Operator.Brightness_compensation hist
  in
  check bool "clipping within budget" true
    (sol.Annotation.Operator.clipped_fraction <= 0.05 +. 1e-9);
  (* delta = 255 - 70: the offset uses the whole budgeted headroom. *)
  check (Alcotest.float 1e-9) "delta" 185. sol.Annotation.Operator.parameter

let test_operator_apply_matches_ops () =
  let frame = Image.Raster.create ~width:4 ~height:4 in
  Image.Raster.fill frame (Image.Pixel.gray 80);
  let hist = Image.Histogram.of_raster frame in
  let contrast =
    Annotation.Operator.solve ~device ~quality:Annotation.Quality_level.Lossless
      Annotation.Operator.Contrast_enhancement hist
  in
  let applied = Annotation.Operator.apply contrast frame in
  check bool "brightened" true
    (Image.Raster.mean_luminance applied > Image.Raster.mean_luminance frame)

(* --- Track -------------------------------------------------------------- *)

let entry ~first ~count ~register ~comp ~eff =
  {
    Annotation.Track.first_frame = first;
    frame_count = count;
    register;
    compensation = comp;
    effective_max = eff;
  }

let sample_track () =
  Annotation.Track.make ~clip_name:"c" ~device_name:"d"
    ~quality:Annotation.Quality_level.Loss_10 ~fps:12. ~total_frames:10
    [|
      entry ~first:0 ~count:4 ~register:200 ~comp:1.2 ~eff:210;
      entry ~first:4 ~count:3 ~register:100 ~comp:2.0 ~eff:128;
      entry ~first:7 ~count:3 ~register:200 ~comp:1.2 ~eff:210;
    |]

let test_track_lookup () =
  let t = sample_track () in
  check int "frame 0" 200 (Annotation.Track.lookup t 0).Annotation.Track.register;
  check int "frame 3" 200 (Annotation.Track.lookup t 3).Annotation.Track.register;
  check int "frame 4" 100 (Annotation.Track.lookup t 4).Annotation.Track.register;
  check int "frame 6" 100 (Annotation.Track.lookup t 6).Annotation.Track.register;
  check int "frame 9" 200 (Annotation.Track.lookup t 9).Annotation.Track.register;
  Alcotest.check_raises "out of range"
    (Invalid_argument "Track.lookup: frame out of range") (fun () ->
      ignore (Annotation.Track.lookup t 10))

let test_track_register_track () =
  let t = sample_track () in
  Alcotest.(check (array int))
    "expanded"
    [| 200; 200; 200; 200; 100; 100; 100; 200; 200; 200 |]
    (Annotation.Track.register_track t)

let test_track_switch_count () =
  check int "two switches" 2 (Annotation.Track.switch_count (sample_track ()))

let test_track_merge_runs () =
  let t =
    Annotation.Track.make ~clip_name:"c" ~device_name:"d"
      ~quality:Annotation.Quality_level.Lossless ~fps:10. ~total_frames:6
      [|
        entry ~first:0 ~count:2 ~register:90 ~comp:1.5 ~eff:128;
        entry ~first:2 ~count:2 ~register:90 ~comp:1.5 ~eff:128;
        entry ~first:4 ~count:2 ~register:30 ~comp:3.0 ~eff:60;
      |]
  in
  let merged = Annotation.Track.merge_runs t in
  check int "merged entries" 2 (Annotation.Track.entry_count merged);
  Alcotest.(check (array int))
    "same expansion"
    (Annotation.Track.register_track t)
    (Annotation.Track.register_track merged)

let test_track_validation () =
  let bad_gap () =
    ignore
      (Annotation.Track.make ~clip_name:"c" ~device_name:"d"
         ~quality:Annotation.Quality_level.Lossless ~fps:10. ~total_frames:4
         [|
           entry ~first:0 ~count:2 ~register:10 ~comp:1. ~eff:20;
           entry ~first:3 ~count:1 ~register:10 ~comp:1. ~eff:20;
         |])
  in
  Alcotest.check_raises "gap rejected"
    (Invalid_argument "Track.make: entries not contiguous") bad_gap;
  let bad_coverage () =
    ignore
      (Annotation.Track.make ~clip_name:"c" ~device_name:"d"
         ~quality:Annotation.Quality_level.Lossless ~fps:10. ~total_frames:5
         [| entry ~first:0 ~count:2 ~register:10 ~comp:1. ~eff:20 |])
  in
  Alcotest.check_raises "short coverage rejected"
    (Invalid_argument "Track.make: entries do not cover the clip") bad_coverage;
  let bad_comp () =
    ignore
      (Annotation.Track.make ~clip_name:"c" ~device_name:"d"
         ~quality:Annotation.Quality_level.Lossless ~fps:10. ~total_frames:1
         [| entry ~first:0 ~count:1 ~register:10 ~comp:0.5 ~eff:20 |])
  in
  Alcotest.check_raises "compensation below 1 rejected"
    (Invalid_argument "Track.make: invalid entry") bad_comp

let test_track_empty_clip () =
  let t =
    Annotation.Track.make ~clip_name:"c" ~device_name:"d"
      ~quality:Annotation.Quality_level.Lossless ~fps:10. ~total_frames:0 [||]
  in
  check int "no switches" 0 (Annotation.Track.switch_count t);
  Alcotest.(check (array int)) "empty register track" [||] (Annotation.Track.register_track t)

(* --- Encoding ----------------------------------------------------------- *)

let test_encoding_roundtrip () =
  let t = sample_track () in
  let encoded = Annotation.Encoding.encode t in
  match Annotation.Encoding.decode encoded with
  | Error msg -> Alcotest.fail msg
  | Ok t' ->
    check bool "clip name" true (t'.Annotation.Track.clip_name = "c");
    check bool "device name" true (t'.Annotation.Track.device_name = "d");
    check bool "quality" true
      (Annotation.Quality_level.compare t'.Annotation.Track.quality t.Annotation.Track.quality = 0);
    check (Alcotest.float 1e-6) "fps" 12. t'.Annotation.Track.fps;
    Alcotest.(check (array int))
      "registers preserved"
      (Annotation.Track.register_track t)
      (Annotation.Track.register_track t');
    Array.iteri
      (fun i (e : Annotation.Track.entry) ->
        let e' = t'.Annotation.Track.entries.(i) in
        check bool "compensation close" true
          (abs_float (e.Annotation.Track.compensation -. e'.Annotation.Track.compensation)
           < 0.001))
      t.Annotation.Track.entries

let test_encoding_compact () =
  (* §4.3: annotations are "in the order of hundreds of bytes". A
     10-entry track must be well under 200 bytes. *)
  let entries =
    Array.init 10 (fun i ->
        entry ~first:(i * 30) ~count:30 ~register:(50 + (i * 10))
          ~comp:(1. +. (0.1 *. float_of_int i))
          ~eff:(100 + (i * 10)))
  in
  let t =
    Annotation.Track.make ~clip_name:"clip" ~device_name:"ipaq_h5555"
      ~quality:Annotation.Quality_level.Loss_10 ~fps:12. ~total_frames:300 entries
  in
  check bool "compact" true (Annotation.Encoding.encoded_size t < 200)

let test_encoding_rejects_garbage () =
  check bool "garbage" true (Result.is_error (Annotation.Encoding.decode "garbage"));
  check bool "empty" true (Result.is_error (Annotation.Encoding.decode ""));
  let valid = Annotation.Encoding.encode (sample_track ()) in
  let truncated = String.sub valid 0 (String.length valid - 3) in
  check bool "truncated" true (Result.is_error (Annotation.Encoding.decode truncated));
  let extended = valid ^ "x" in
  check bool "trailing bytes" true (Result.is_error (Annotation.Encoding.decode extended))

let test_encoding_mutation_fuzz () =
  (* Corrupted annotation bytes must yield Error, never an exception —
     the client falls back to full backlight on a bad side channel. *)
  let valid = Annotation.Encoding.encode (sample_track ()) in
  let rng = Image.Prng.create ~seed:77 in
  for _ = 1 to 300 do
    let mutated = Bytes.of_string valid in
    let pos = Image.Prng.int rng (Bytes.length mutated) in
    Bytes.set mutated pos (Char.chr (Image.Prng.int rng 256));
    match Annotation.Encoding.decode (Bytes.to_string mutated) with
    | Ok _ | Error _ -> ()
  done;
  check bool "no escaped exceptions over 300 mutations" true true

(* A contiguous track whose later runs start past 2^24 frames — more
   than the fixed v2 record's u24 slots can hold. Distinct registers
   keep merge_runs from coalescing the runs away. *)
let huge_track () =
  let run = 0x900000 in
  Annotation.Track.make ~clip_name:"long" ~device_name:"d"
    ~quality:Annotation.Quality_level.Loss_10 ~fps:12. ~total_frames:(3 * run)
    [|
      entry ~first:0 ~count:run ~register:200 ~comp:1.5 ~eff:210;
      entry ~first:run ~count:run ~register:100 ~comp:1.5 ~eff:128;
      entry ~first:(2 * run) ~count:run ~register:50 ~comp:1.5 ~eff:90;
    |]

let test_encode_rejects_u24_overflow () =
  (* Regression: a first_frame past 2^24 - 1 must raise a field-named
     Invalid_argument instead of wrapping into bytes that still CRC as
     valid. *)
  Alcotest.check_raises "first_frame overflow"
    (Invalid_argument
       (Printf.sprintf "Encoding: first_frame %d out of u24 range"
          (2 * 0x900000)))
    (fun () -> ignore (Annotation.Encoding.encode (huge_track ())))

let test_encode_rejects_gain_overflow () =
  (* The 12.12 fixed point carries gains below 4096; a pathological
     compensation must be rejected, not truncated. *)
  let t =
    Annotation.Track.make ~clip_name:"c" ~device_name:"d"
      ~quality:Annotation.Quality_level.Loss_10 ~fps:12. ~total_frames:4
      [| entry ~first:0 ~count:4 ~register:10 ~comp:5000. ~eff:255 |]
  in
  Alcotest.check_raises "compensation gain overflow"
    (Invalid_argument
       (Printf.sprintf "Encoding: compensation gain %d out of u24 range"
          (int_of_float ((5000. *. 4096.) +. 0.5))))
    (fun () -> ignore (Annotation.Encoding.encode t))

let test_encoding_rejects_bad_version () =
  let valid = Bytes.of_string (Annotation.Encoding.encode (sample_track ())) in
  Bytes.set valid 4 '\xFF';
  check bool "bad version" true
    (Result.is_error (Annotation.Encoding.decode (Bytes.to_string valid)))

let prop_encoding_roundtrip =
  (* Random (but valid) tracks survive encode/decode. *)
  let track_gen =
    let open QCheck2.Gen in
    let* n_entries = 1 -- 12 in
    let* counts = list_size (return n_entries) (1 -- 50) in
    let* registers = list_size (return n_entries) (0 -- 255) in
    let* effs = list_size (return n_entries) (0 -- 255) in
    let entries =
      List.map2
        (fun c (r, e) ->
          (* Compensation quantised to the wire fixed point so
             round-trips are exact. *)
          let comp = 1. +. (float_of_int (r mod 7) /. 8.) in
          let comp = Float.round (comp *. 4096.) /. 4096. in
          (c, r, e, comp))
        counts (List.combine registers effs)
    in
    let _, with_offsets =
      List.fold_left
        (fun (next, acc) (c, r, e, comp) ->
          ( next + c,
            entry ~first:next ~count:c ~register:r ~comp ~eff:e :: acc ))
        (0, []) entries
    in
    let entries_arr = Array.of_list (List.rev with_offsets) in
    let total = Array.fold_left (fun a e -> a + e.Annotation.Track.frame_count) 0 entries_arr in
    return
      (Annotation.Track.make ~clip_name:"gen" ~device_name:"dev"
         ~quality:Annotation.Quality_level.Loss_15 ~fps:12. ~total_frames:total entries_arr)
  in
  QCheck2.Test.make ~name:"encoding round-trips arbitrary tracks" track_gen
    (fun t ->
      match Annotation.Encoding.decode (Annotation.Encoding.encode t) with
      | Error _ -> false
      | Ok t' ->
        Annotation.Track.register_track t = Annotation.Track.register_track t'
        && t'.Annotation.Track.total_frames = t.Annotation.Track.total_frames)

(* --- Compensate / Annotator ---------------------------------------------- *)

let dark_bright_clip () =
  (* 8 dark frames then 8 bright frames, no noise: two crisp scenes. *)
  let profile =
    {
      Video.Profile.name = "two-scene";
      seed = 5;
      scenes =
        [
          Video.Profile.scene ~seconds:1. ~noise_sigma:0. (Video.Profile.Flat 60);
          Video.Profile.scene ~seconds:1. ~noise_sigma:0. (Video.Profile.Flat 220);
        ];
    }
  in
  Video.Clip_gen.render ~width:24 ~height:18 ~fps:8. profile

let test_annotator_two_scenes () =
  let clip = dark_bright_clip () in
  let track =
    Annotation.Annotator.annotate ~device ~quality:Annotation.Quality_level.Lossless clip
  in
  check int "two entries" 2 (Annotation.Track.entry_count track);
  let dark = Annotation.Track.lookup track 0 and bright = Annotation.Track.lookup track 15 in
  check bool "dark scene dimmed" true
    (dark.Annotation.Track.register < bright.Annotation.Track.register);
  check int "dark effective max" 60 dark.Annotation.Track.effective_max;
  check int "bright effective max" 220 bright.Annotation.Track.effective_max

let test_annotator_perceived_intensity_preserved () =
  (* End-to-end §4.1 check: the compensated frame at the annotated
     register must look like the original at full backlight. *)
  let clip = dark_bright_clip () in
  let track =
    Annotation.Annotator.annotate ~device ~quality:Annotation.Quality_level.Lossless clip
  in
  let original = clip.Video.Clip.render 2 in
  let compensated = Annotation.Compensate.frame track 2 original in
  let entry = Annotation.Track.lookup track 2 in
  let err =
    Annotation.Compensate.perceived_error ~device ~original ~compensated
      ~register:entry.Annotation.Track.register
  in
  check bool (Printf.sprintf "perceived error %.4f < 2%%" err) true (err < 0.02)

let test_annotator_lossless_never_clips () =
  let clip = dark_bright_clip () in
  let track =
    Annotation.Annotator.annotate ~device ~quality:Annotation.Quality_level.Lossless clip
  in
  (* At lossless quality no pixel may saturate under compensation. *)
  Video.Clip.iter_frames
    (fun i frame ->
      let entry = Annotation.Track.lookup track i in
      let clipped =
        Image.Ops.clipped_fraction ~k:entry.Annotation.Track.compensation frame
      in
      check (Alcotest.float 1e-9) (Printf.sprintf "frame %d" i) 0. clipped)
    clip

let test_annotator_quality_budget_on_scenes () =
  (* On scene-stable content the per-frame clipping stays within the
     budget for every quality level. *)
  let clip = dark_bright_clip () in
  let profiled = Annotation.Annotator.profile clip in
  List.iter
    (fun q ->
      let track = Annotation.Annotator.annotate_profiled ~device ~quality:q profiled in
      Video.Clip.iter_frames
        (fun i frame ->
          let entry = Annotation.Track.lookup track i in
          let clipped =
            Image.Ops.clipped_fraction ~k:entry.Annotation.Track.compensation frame
          in
          check bool
            (Printf.sprintf "%s frame %d clipped %.3f" (Annotation.Quality_level.label q) i clipped)
            true
            (clipped <= Annotation.Quality_level.allowed_loss q +. 1e-9))
        clip)
    Annotation.Quality_level.standard_grid

let test_annotator_compensated_clip () =
  let clip = dark_bright_clip () in
  let track =
    Annotation.Annotator.annotate ~device ~quality:Annotation.Quality_level.Lossless clip
  in
  let compensated = Annotation.Compensate.clip clip track in
  (* The dark scene is brightened in the stream the client receives. *)
  check bool "stream pre-brightened" true
    (Image.Raster.mean_luminance (compensated.Video.Clip.render 0)
     > Image.Raster.mean_luminance (clip.Video.Clip.render 0));
  check bool "name tagged" true
    (compensated.Video.Clip.name = "two-scene+compensated")

let test_annotator_profile_caching_consistency () =
  let clip = dark_bright_clip () in
  let profiled = Annotation.Annotator.profile clip in
  let direct = Annotation.Annotator.annotate ~device ~quality:Annotation.Quality_level.Loss_10 clip in
  let cached =
    Annotation.Annotator.annotate_profiled ~device ~quality:Annotation.Quality_level.Loss_10 profiled
  in
  Alcotest.(check (array int))
    "same registers either way"
    (Annotation.Track.register_track direct)
    (Annotation.Track.register_track cached)

let test_annotator_device_specific_registers () =
  (* §2: "Our scheme allows us to tailor the technique to each PDA" —
     the same clip and quality must give different registers on LED vs
     CCFL devices. *)
  let clip = dark_bright_clip () in
  let profiled = Annotation.Annotator.profile clip in
  let led =
    Annotation.Annotator.annotate_profiled ~device:Display.Device.ipaq_h5555
      ~quality:Annotation.Quality_level.Lossless profiled
  in
  let ccfl =
    Annotation.Annotator.annotate_profiled ~device:Display.Device.ipaq_h3650
      ~quality:Annotation.Quality_level.Lossless profiled
  in
  check bool "registers differ across devices" true
    (Annotation.Track.register_track led <> Annotation.Track.register_track ccfl)

let test_annotator_channel_max_plane_conservative () =
  (* A saturated-red frame: luma profiling under-estimates clipping,
     channel-max profiling raises the registers to prevent it. *)
  let frame = Image.Raster.create ~width:16 ~height:12 in
  Image.Raster.fill frame (Image.Pixel.gray 40);
  Image.Draw.rect frame ~x:0 ~y:0 ~w:8 ~h:12 (Image.Pixel.v 230 30 30);
  let clip = Video.Clip.of_frames ~name:"red" ~fps:8. (Array.make 8 frame) in
  let register plane =
    let profiled = Annotation.Annotator.profile ~plane clip in
    let track =
      Annotation.Annotator.annotate_profiled ~device ~quality:Annotation.Quality_level.Lossless
        profiled
    in
    (Annotation.Track.lookup track 0).Annotation.Track.register
  in
  let luma_register = register `Luma in
  let chan_register = register `Channel_max in
  check bool "channel-max register higher" true (chan_register > luma_register);
  (* And the channel-max register really is lossless on the pixels. *)
  let gain = Display.Device.backlight_gain device chan_register in
  check (Alcotest.float 1e-9) "no pixel clips" 0.
    (Image.Ops.clipped_fraction ~k:(1. /. gain) frame)

(* --- Neutral (client-mapped) annotation ------------------------------------ *)

let test_neutral_track_is_generic () =
  let clip = dark_bright_clip () in
  let profiled = Annotation.Annotator.profile clip in
  let neutral = Annotation.Neutral.annotate ~quality:Annotation.Quality_level.Lossless profiled in
  check bool "generic device name" true
    (neutral.Annotation.Track.device_name = Annotation.Neutral.generic_device_name);
  (* Neutral "registers" are the effective maxima themselves. *)
  Array.iter
    (fun (e : Annotation.Track.entry) ->
      check int "wire gain equals effective max" e.Annotation.Track.effective_max
        e.Annotation.Track.register)
    neutral.Annotation.Track.entries

let test_neutral_mapping_matches_server_side () =
  (* Client-side mapping of a neutral track lands on the same registers
     as direct server-side annotation for that device. *)
  let clip = dark_bright_clip () in
  let profiled = Annotation.Annotator.profile clip in
  let neutral = Annotation.Neutral.annotate ~quality:Annotation.Quality_level.Loss_10 profiled in
  List.iter
    (fun dev ->
      let mapped = Annotation.Neutral.map_to_device dev neutral in
      let direct =
        Annotation.Annotator.annotate_profiled ~device:dev
          ~quality:Annotation.Quality_level.Loss_10 profiled
      in
      check bool (dev.Display.Device.name ^ " name set") true
        (mapped.Annotation.Track.device_name = dev.Display.Device.name);
      Alcotest.(check (array int))
        (dev.Display.Device.name ^ " registers agree")
        (Annotation.Track.register_track direct)
        (Annotation.Track.register_track mapped))
    Display.Device.all

let test_neutral_roundtrips_the_wire () =
  let clip = dark_bright_clip () in
  let profiled = Annotation.Annotator.profile clip in
  let neutral = Annotation.Neutral.annotate ~quality:Annotation.Quality_level.Loss_10 profiled in
  match Annotation.Encoding.decode (Annotation.Encoding.encode neutral) with
  | Error e -> Alcotest.fail e
  | Ok wire ->
    let mapped = Annotation.Neutral.map_to_device device wire in
    Alcotest.(check (array int))
      "wire neutral maps identically"
      (Annotation.Track.register_track (Annotation.Neutral.map_to_device device neutral))
      (Annotation.Track.register_track mapped)

(* --- Live (windowed) annotation ------------------------------------------- *)

let test_live_full_window_equals_offline () =
  let clip = dark_bright_clip () in
  let profiled = Annotation.Annotator.profile clip in
  let offline =
    Annotation.Annotator.annotate_profiled ~device ~quality:Annotation.Quality_level.Loss_10
      profiled
  in
  let live =
    Annotation.Live.annotate ~lookahead:clip.Video.Clip.frame_count ~device
      ~quality:Annotation.Quality_level.Loss_10 profiled
  in
  Alcotest.(check (array int))
    "identical registers"
    (Annotation.Track.register_track offline)
    (Annotation.Track.register_track live)

let test_live_windows_never_span () =
  let clip = dark_bright_clip () in
  let profiled = Annotation.Annotator.profile clip in
  let lookahead = 5 in
  let track =
    Annotation.Live.annotate ~lookahead ~device ~quality:Annotation.Quality_level.Loss_10 profiled
  in
  Array.iter
    (fun (e : Annotation.Track.entry) ->
      let window_of i = i / lookahead in
      check int "entry stays in one window"
        (window_of e.Annotation.Track.first_frame)
        (window_of (e.Annotation.Track.first_frame + e.Annotation.Track.frame_count - 1)))
    track.Annotation.Track.entries

let test_live_savings_close_to_offline () =
  let clip = dark_bright_clip () in
  let profiled = Annotation.Annotator.profile clip in
  let mean_reg track =
    let regs = Annotation.Track.register_track track in
    float_of_int (Array.fold_left ( + ) 0 regs) /. float_of_int (Array.length regs)
  in
  let offline =
    mean_reg
      (Annotation.Annotator.annotate_profiled ~device ~quality:Annotation.Quality_level.Loss_10
         profiled)
  in
  let live =
    mean_reg
      (Annotation.Live.annotate ~lookahead:6 ~device ~quality:Annotation.Quality_level.Loss_10
         profiled)
  in
  (* A 6-frame window on a 16-frame clip straddles the cut (the
     hysteresis cannot fire inside so short a window), so live runs a
     few frames at the merged-window register. It must stay in the
     same ballpark, and err on the bright (conservative) side. *)
  check bool "mean register within 40 of offline" true (abs_float (offline -. live) < 40.);
  check bool "live never dims below offline here" true (live >= offline -. 1e-9)

let test_live_latency () =
  check (Alcotest.float 1e-9) "latency" 3.
    (Annotation.Live.added_latency_s ~lookahead:36 ~fps:12.);
  Alcotest.check_raises "bad lookahead"
    (Invalid_argument "Live: lookahead must be positive") (fun () ->
      ignore (Annotation.Live.added_latency_s ~lookahead:0 ~fps:12.))

(* --- Protected (ROI) ------------------------------------------------------ *)

(* A dark clip with a bright band of "text" in the middle. *)
let credits_like_clip () =
  let width = 32 and height = 24 in
  let frames =
    Array.init 12 (fun _ ->
        let img = Image.Raster.create ~width ~height in
        Image.Raster.fill img (Image.Pixel.gray 10);
        Image.Draw.rect img ~x:4 ~y:10 ~w:24 ~h:3 (Image.Pixel.gray 230);
        img)
  in
  (Video.Clip.of_frames ~name:"credits-like" ~fps:6. frames, width, height)

let test_protected_solve_scene_respects_roi () =
  let inside = histogram_of_levels [ 230; 230; 10 ] in
  let outside = histogram_of_levels (List.init 100 (fun _ -> 10)) in
  let sol =
    Annotation.Protected.solve_scene ~device ~quality:Annotation.Quality_level.Loss_20 ~inside
      ~outside
  in
  check int "effective max covers the ROI" 230 sol.Annotation.Backlight_solver.effective_max

let test_protected_annotate_zero_roi_clipping () =
  let clip, width, height = credits_like_clip () in
  let roi = Image.Roi.center_band ~width ~height ~fraction:0.4 in
  let profiled = Annotation.Protected.profile ~roi clip in
  let track =
    Annotation.Protected.annotate ~device ~quality:Annotation.Quality_level.Loss_20 profiled
  in
  check (Alcotest.float 1e-9) "text never clips" 0.
    (Annotation.Protected.roi_clipped_fraction ~device profiled track)

let test_protected_vs_unprotected_tradeoff () =
  let clip, width, height = credits_like_clip () in
  let roi = Image.Roi.center_band ~width ~height ~fraction:0.4 in
  let profiled = Annotation.Protected.profile ~roi clip in
  let unprotected =
    Annotation.Annotator.annotate ~device ~quality:Annotation.Quality_level.Loss_20 clip
  in
  let protected_track =
    Annotation.Protected.annotate ~device ~quality:Annotation.Quality_level.Loss_20 profiled
  in
  (* Unprotected clips the text; protection costs registers. *)
  check bool "unprotected damages text" true
    (Annotation.Protected.roi_clipped_fraction ~device profiled unprotected > 0.01);
  let mean_reg track =
    let regs = Annotation.Track.register_track track in
    float_of_int (Array.fold_left ( + ) 0 regs) /. float_of_int (Array.length regs)
  in
  check bool "protection raises the registers" true
    (mean_reg protected_track > mean_reg unprotected)

let test_protected_empty_roi_matches_unprotected () =
  let clip, _, _ = credits_like_clip () in
  let profiled = Annotation.Protected.profile ~roi:Image.Roi.empty clip in
  let protected_track =
    Annotation.Protected.annotate ~device ~quality:Annotation.Quality_level.Loss_10 profiled
  in
  let unprotected =
    Annotation.Annotator.annotate ~device ~quality:Annotation.Quality_level.Loss_10 clip
  in
  Alcotest.(check (array int))
    "identical registers with empty region"
    (Annotation.Track.register_track unprotected)
    (Annotation.Track.register_track protected_track)

(* Random valid tracks for structural properties. *)
let arbitrary_track_gen =
  let open QCheck2.Gen in
  let* n_entries = 1 -- 15 in
  let* specs =
    list_size (return n_entries)
      (triple (1 -- 40) (0 -- 255) (0 -- 255))
  in
  let _, entries =
    List.fold_left
      (fun (next, acc) (count, register, eff) ->
        ( next + count,
          entry ~first:next ~count ~register ~comp:(1. +. (float_of_int (eff mod 5) /. 4.))
            ~eff
          :: acc ))
      (0, []) specs
  in
  let entries = Array.of_list (List.rev entries) in
  let total = Array.fold_left (fun a e -> a + e.Annotation.Track.frame_count) 0 entries in
  return
    (Annotation.Track.make ~clip_name:"prop" ~device_name:"dev"
       ~quality:Annotation.Quality_level.Loss_10 ~fps:10. ~total_frames:total entries)

let prop_merge_runs_idempotent =
  QCheck2.Test.make ~name:"merge_runs is idempotent and preserves expansion"
    arbitrary_track_gen (fun track ->
      let once = Annotation.Track.merge_runs track in
      let twice = Annotation.Track.merge_runs once in
      Annotation.Track.entry_count once = Annotation.Track.entry_count twice
      && Annotation.Track.register_track track = Annotation.Track.register_track once)

let prop_switches_bounded_by_entries =
  QCheck2.Test.make ~name:"switch count below entry count" arbitrary_track_gen
    (fun track ->
      Annotation.Track.switch_count track < max 1 (Annotation.Track.entry_count track))

let prop_lookup_consistent_with_expansion =
  QCheck2.Test.make ~name:"lookup agrees with the expanded register track"
    arbitrary_track_gen (fun track ->
      let regs = Annotation.Track.register_track track in
      let ok = ref true in
      Array.iteri
        (fun i r ->
          if (Annotation.Track.lookup track i).Annotation.Track.register <> r then ok := false)
        regs;
      !ok)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_scene_partition;
      prop_solver_monotone_in_quality;
      prop_solver_respects_budget;
      prop_encoding_roundtrip;
      prop_merge_runs_idempotent;
      prop_switches_bounded_by_entries;
      prop_lookup_consistent_with_expansion;
    ]

let () =
  Alcotest.run "annot"
    [
      ( "quality_level",
        [
          Alcotest.test_case "grid" `Quick test_quality_grid;
          Alcotest.test_case "of_percent" `Quick test_quality_of_percent;
          Alcotest.test_case "of_permille" `Quick test_quality_of_permille;
          Alcotest.test_case "labels" `Quick test_quality_labels;
          Alcotest.test_case "custom validation" `Quick test_quality_custom_validation;
        ] );
      ( "scene_detect",
        [
          Alcotest.test_case "single scene" `Quick test_scene_single_scene;
          Alcotest.test_case "detects cut" `Quick test_scene_detects_cut;
          Alcotest.test_case "threshold hysteresis" `Quick test_scene_threshold_hysteresis;
          Alcotest.test_case "min interval" `Quick test_scene_min_interval_suppresses_flicker;
          Alcotest.test_case "per-frame mode" `Quick test_scene_per_frame_mode;
          Alcotest.test_case "empty track" `Quick test_scene_empty_track;
          Alcotest.test_case "scene max" `Quick test_scene_max;
          Alcotest.test_case "params validation" `Quick test_scene_params_validation;
        ] );
      ( "backlight_solver",
        [
          Alcotest.test_case "bright scene" `Quick test_solver_bright_scene_no_dimming;
          Alcotest.test_case "dark scene" `Quick test_solver_dark_scene_dims;
          Alcotest.test_case "clipping budget" `Quick test_solver_clipping_budget_used;
          Alcotest.test_case "black scene" `Quick test_solver_black_scene;
          Alcotest.test_case "realised covers desired" `Quick
            test_solver_realised_gain_covers_desired;
          Alcotest.test_case "never overclips" `Quick
            test_solver_compensation_never_overclips;
        ] );
      ( "operator",
        [
          Alcotest.test_case "contrast exact" `Quick test_operator_contrast_exact_when_lossless;
          Alcotest.test_case "brightness residual" `Quick
            test_operator_brightness_has_residual;
          Alcotest.test_case "brightness budget" `Quick
            test_operator_brightness_respects_budget;
          Alcotest.test_case "apply" `Quick test_operator_apply_matches_ops;
        ] );
      ( "track",
        [
          Alcotest.test_case "lookup" `Quick test_track_lookup;
          Alcotest.test_case "register track" `Quick test_track_register_track;
          Alcotest.test_case "switch count" `Quick test_track_switch_count;
          Alcotest.test_case "merge runs" `Quick test_track_merge_runs;
          Alcotest.test_case "validation" `Quick test_track_validation;
          Alcotest.test_case "empty clip" `Quick test_track_empty_clip;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "roundtrip" `Quick test_encoding_roundtrip;
          Alcotest.test_case "compact" `Quick test_encoding_compact;
          Alcotest.test_case "rejects garbage" `Quick test_encoding_rejects_garbage;
          Alcotest.test_case "rejects bad version" `Quick test_encoding_rejects_bad_version;
          Alcotest.test_case "rejects u24 overflow" `Quick
            test_encode_rejects_u24_overflow;
          Alcotest.test_case "rejects gain overflow" `Quick
            test_encode_rejects_gain_overflow;
          Alcotest.test_case "mutation fuzz" `Quick test_encoding_mutation_fuzz;
        ] );
      ( "annotator",
        [
          Alcotest.test_case "two scenes" `Quick test_annotator_two_scenes;
          Alcotest.test_case "perceived intensity" `Quick
            test_annotator_perceived_intensity_preserved;
          Alcotest.test_case "lossless never clips" `Quick test_annotator_lossless_never_clips;
          Alcotest.test_case "quality budget" `Quick test_annotator_quality_budget_on_scenes;
          Alcotest.test_case "compensated clip" `Quick test_annotator_compensated_clip;
          Alcotest.test_case "profile caching" `Quick
            test_annotator_profile_caching_consistency;
          Alcotest.test_case "device specific" `Quick test_annotator_device_specific_registers;
          Alcotest.test_case "channel-max plane" `Quick
            test_annotator_channel_max_plane_conservative;
        ] );
      ( "neutral",
        [
          Alcotest.test_case "generic track" `Quick test_neutral_track_is_generic;
          Alcotest.test_case "mapping matches server-side" `Quick
            test_neutral_mapping_matches_server_side;
          Alcotest.test_case "wire roundtrip" `Quick test_neutral_roundtrips_the_wire;
        ] );
      ( "live",
        [
          Alcotest.test_case "full window = offline" `Quick
            test_live_full_window_equals_offline;
          Alcotest.test_case "windows never span" `Quick test_live_windows_never_span;
          Alcotest.test_case "savings close to offline" `Quick
            test_live_savings_close_to_offline;
          Alcotest.test_case "latency" `Quick test_live_latency;
        ] );
      ( "protected",
        [
          Alcotest.test_case "solve respects ROI" `Quick
            test_protected_solve_scene_respects_roi;
          Alcotest.test_case "zero ROI clipping" `Quick
            test_protected_annotate_zero_roi_clipping;
          Alcotest.test_case "trade-off vs unprotected" `Quick
            test_protected_vs_unprotected_tradeoff;
          Alcotest.test_case "empty ROI equivalence" `Quick
            test_protected_empty_roi_matches_unprotected;
        ] );
      ("properties", qtests);
    ]

(* Tests for clips, profiles and the synthetic workload generator. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let tiny_profile =
  {
    Video.Profile.name = "tiny";
    seed = 42;
    scenes =
      [
        Video.Profile.scene ~seconds:1. (Video.Profile.Flat 30);
        Video.Profile.scene ~seconds:0.5 (Video.Profile.Flat 200);
      ];
  }

(* --- Clip ------------------------------------------------------------- *)

let test_clip_of_frames () =
  let frames =
    Array.init 3 (fun i ->
        let img = Image.Raster.create ~width:4 ~height:4 in
        Image.Raster.fill img (Image.Pixel.gray (i * 50));
        img)
  in
  let clip = Video.Clip.of_frames ~name:"t" ~fps:10. frames in
  check int "frame count" 3 clip.Video.Clip.frame_count;
  check (Alcotest.float 1e-9) "duration" 0.3 (Video.Clip.duration_seconds clip);
  check (Alcotest.float 1e-9) "frame time" 0.2 (Video.Clip.frame_time clip 2);
  check int "render frame 1" 50 (Image.Raster.max_luminance (clip.Video.Clip.render 1))

let test_clip_of_frames_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Clip.of_frames: empty clip")
    (fun () -> ignore (Video.Clip.of_frames ~name:"e" ~fps:10. [||]));
  let a = Image.Raster.create ~width:2 ~height:2 in
  let b = Image.Raster.create ~width:3 ~height:2 in
  Alcotest.check_raises "dims"
    (Invalid_argument "Clip.of_frames: inconsistent frame dimensions") (fun () ->
      ignore (Video.Clip.of_frames ~name:"d" ~fps:10. [| a; b |]))

let test_clip_render_bounds () =
  let clip =
    Video.Clip.make ~name:"b" ~width:2 ~height:2 ~fps:5. ~frame_count:2 (fun _ ->
        Image.Raster.create ~width:2 ~height:2)
  in
  Alcotest.check_raises "negative"
    (Invalid_argument "Clip.render: frame index out of range") (fun () ->
      ignore (clip.Video.Clip.render (-1)));
  Alcotest.check_raises "past end"
    (Invalid_argument "Clip.render: frame index out of range") (fun () ->
      ignore (clip.Video.Clip.render 2))

let test_clip_iter_order () =
  let clip =
    Video.Clip.make ~name:"o" ~width:1 ~height:1 ~fps:1. ~frame_count:4 (fun i ->
        let img = Image.Raster.create ~width:1 ~height:1 in
        Image.Raster.fill img (Image.Pixel.gray (i * 10));
        img)
  in
  let seen = ref [] in
  Video.Clip.iter_frames (fun i f ->
      seen := (i, Image.Raster.max_luminance f) :: !seen) clip;
  Alcotest.(check (list (pair int int)))
    "ordered" [ (0, 0); (1, 10); (2, 20); (3, 30) ] (List.rev !seen)

let test_clip_map_frames () =
  let clip =
    Video.Clip.make ~name:"m" ~width:2 ~height:2 ~fps:1. ~frame_count:1 (fun _ ->
        let img = Image.Raster.create ~width:2 ~height:2 in
        Image.Raster.fill img (Image.Pixel.gray 100);
        img)
  in
  let doubled =
    Video.Clip.map_frames ~name:"m2"
      (fun _ f -> Image.Ops.contrast_enhance ~k:2. f)
      clip
  in
  check int "mapped" 200 (Image.Raster.max_luminance (doubled.Video.Clip.render 0))

let test_max_luminance_track () =
  let clip = Video.Clip_gen.render ~width:16 ~height:12 ~fps:4. tiny_profile in
  let track = Video.Clip.max_luminance_track clip in
  check int "track length" clip.Video.Clip.frame_count (Array.length track);
  (* The flat-200 scene is brighter than the flat-30 scene. *)
  check bool "second scene brighter" true
    (track.(Array.length track - 1) > track.(0))

(* --- Profile ---------------------------------------------------------- *)

let test_profile_validation_ok () =
  Alcotest.(check (result unit string))
    "tiny profile valid" (Ok ())
    (Video.Profile.validate tiny_profile)

let test_profile_validation_errors () =
  let bad_scene scene = { tiny_profile with Video.Profile.scenes = [ scene ] } in
  let is_error p = Result.is_error (Video.Profile.validate p) in
  check bool "empty profile" true
    (is_error { tiny_profile with Video.Profile.scenes = [] });
  check bool "negative duration" true
    (is_error
       (bad_scene (Video.Profile.scene ~seconds:(-1.) (Video.Profile.Flat 10))));
  check bool "bad background level" true
    (is_error (bad_scene (Video.Profile.scene ~seconds:1. (Video.Profile.Flat 400))));
  check bool "bad vignette" true
    (is_error
       (bad_scene
          (Video.Profile.scene ~seconds:1. ~vignette:1.5 (Video.Profile.Flat 10))))

let test_profile_total_seconds () =
  check (Alcotest.float 1e-9) "total" 1.5 (Video.Profile.total_seconds tiny_profile);
  check int "scene count" 2 (Video.Profile.scene_count tiny_profile)

(* --- Clip_gen --------------------------------------------------------- *)

let test_clip_gen_dimensions () =
  let clip = Video.Clip_gen.render ~width:32 ~height:24 ~fps:8. tiny_profile in
  check int "width" 32 clip.Video.Clip.width;
  check int "height" 24 clip.Video.Clip.height;
  (* 1s at 8fps + 0.5s at 8fps = 8 + 4 frames. *)
  check int "frame count" 12 clip.Video.Clip.frame_count

let test_clip_gen_deterministic () =
  let c1 = Video.Clip_gen.render ~width:16 ~height:12 tiny_profile in
  let c2 = Video.Clip_gen.render ~width:16 ~height:12 tiny_profile in
  for i = 0 to c1.Video.Clip.frame_count - 1 do
    check bool
      (Printf.sprintf "frame %d equal" i)
      true
      (Image.Raster.equal (c1.Video.Clip.render i) (c2.Video.Clip.render i))
  done

let test_clip_gen_order_independent () =
  let clip = Video.Clip_gen.render ~width:16 ~height:12 tiny_profile in
  let last = clip.Video.Clip.frame_count - 1 in
  let rendered_last_first = clip.Video.Clip.render last in
  ignore (clip.Video.Clip.render 0);
  check bool "same frame regardless of render order" true
    (Image.Raster.equal rendered_last_first (clip.Video.Clip.render last))

let test_clip_gen_scene_boundaries () =
  let bounds = Video.Clip_gen.scene_boundaries ~fps:8. tiny_profile in
  Alcotest.(check (list (pair int int))) "boundaries" [ (0, 7); (8, 11) ] bounds

let test_clip_gen_brightness_follows_profile () =
  let clip = Video.Clip_gen.render ~width:16 ~height:12 ~fps:8. tiny_profile in
  let dark = Image.Raster.mean_luminance (clip.Video.Clip.render 2) in
  let bright = Image.Raster.mean_luminance (clip.Video.Clip.render 10) in
  check bool "flat 30 scene is dark" true (dark < 60.);
  check bool "flat 200 scene is bright" true (bright > 150.)

let test_clip_gen_fade_out () =
  let profile =
    {
      Video.Profile.name = "fade";
      seed = 1;
      scenes =
        [
          Video.Profile.scene ~seconds:2. ~fade:Video.Profile.Fade_out
            ~noise_sigma:0. (Video.Profile.Flat 200);
        ];
    }
  in
  let clip = Video.Clip_gen.render ~width:16 ~height:12 ~fps:8. profile in
  let first = Image.Raster.mean_luminance (clip.Video.Clip.render 0) in
  let last =
    Image.Raster.mean_luminance
      (clip.Video.Clip.render (clip.Video.Clip.frame_count - 1))
  in
  check bool "starts bright" true (first > 150.);
  check (Alcotest.float 0.5) "ends black" 0. last

let test_clip_gen_rejects_invalid () =
  let bad = { tiny_profile with Video.Profile.scenes = [] } in
  Alcotest.check_raises "invalid profile"
    (Invalid_argument "Clip_gen.render: profile has no scenes") (fun () ->
      ignore (Video.Clip_gen.render bad))

let test_clip_gen_highlights_raise_max () =
  let base_scene =
    Video.Profile.scene ~seconds:1. ~noise_sigma:0. (Video.Profile.Flat 30)
  in
  let with_hl =
    {
      base_scene with
      Video.Profile.highlights =
        Some { Video.Profile.count = 3; peak = 200; radius = 60; drift = 0. };
    }
  in
  let render scenes =
    Video.Clip_gen.render ~width:32 ~height:24 ~fps:4.
      { Video.Profile.name = "h"; seed = 3; scenes }
  in
  let plain = render [ base_scene ] and lit = render [ with_hl ] in
  check bool "highlights raise the max" true
    (Image.Raster.max_luminance (lit.Video.Clip.render 0)
     > Image.Raster.max_luminance (plain.Video.Clip.render 0))

let test_clip_gen_vignette_darkens_corners () =
  let base = Video.Profile.scene ~seconds:1. ~noise_sigma:0. (Video.Profile.Flat 150) in
  let render scenes =
    (Video.Clip_gen.render ~width:32 ~height:24 ~fps:4.
       { Video.Profile.name = "v"; seed = 2; scenes }).Video.Clip.render 0
  in
  let flat = render [ base ] in
  let vignetted = render [ { base with Video.Profile.vignette = 0.6 } ] in
  let corner img = (Image.Raster.get img ~x:0 ~y:0).Image.Pixel.r in
  let centre img = (Image.Raster.get img ~x:16 ~y:12).Image.Pixel.r in
  check bool "corner darkened" true (corner vignetted < corner flat - 30);
  check bool "centre kept" true (abs (centre vignetted - centre flat) < 12)

let test_clip_gen_credits_bright_dashes () =
  let clip =
    Video.Clip_gen.render ~width:64 ~height:48 ~fps:4.
      {
        Video.Profile.name = "c";
        seed = 6;
        scenes =
          [ Video.Profile.scene ~seconds:1. ~credits:true ~noise_sigma:0.
              (Video.Profile.Flat 8) ];
      }
  in
  let frame = clip.Video.Clip.render 0 in
  check int "ink level present" 230 (Image.Raster.max_luminance frame);
  (* Dashes are sparse: most of the frame stays near-black. *)
  let hist = Image.Histogram.of_raster frame in
  check bool "text is a small fraction" true
    (float_of_int (Image.Histogram.samples_above hist 128)
     < 0.3 *. float_of_int (Image.Histogram.total hist))

let test_clip_gen_motion_changes_frames () =
  let subject speed =
    { Video.Profile.level = 220; size = 150; speed; vertical_phase = 0.5 }
  in
  let clip speed =
    Video.Clip_gen.render ~width:48 ~height:32 ~fps:8.
      {
        Video.Profile.name = "m";
        seed = 9;
        scenes =
          [
            Video.Profile.scene ~seconds:1. ~noise_sigma:0.
              ~subjects:[ subject speed ] (Video.Profile.Flat 30);
          ];
      }
  in
  let frame_diff c =
    Image.Metrics.mean_absolute_error (c.Video.Clip.render 0) (c.Video.Clip.render 1)
  in
  check bool "faster subject, bigger frame difference" true
    (frame_diff (clip 30.) > frame_diff (clip 2.))

let test_parametric_workload_shape () =
  let p = Video.Workloads.parametric ~base_level:50 ~highlight_peak:180 () in
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Video.Profile.validate p);
  let dark = Video.Clip_gen.render ~width:32 ~height:24 ~fps:4.
      (Video.Workloads.parametric ~seconds:1. ~base_level:20 ~highlight_peak:180 ())
  in
  let bright = Video.Clip_gen.render ~width:32 ~height:24 ~fps:4.
      (Video.Workloads.parametric ~seconds:1. ~base_level:220 ~highlight_peak:30 ())
  in
  check bool "base level controls brightness" true
    (Image.Raster.mean_luminance (bright.Video.Clip.render 0)
     > Image.Raster.mean_luminance (dark.Video.Clip.render 0) +. 100.)

(* --- Workloads -------------------------------------------------------- *)

let test_workloads_all_valid () =
  List.iter
    (fun p ->
      Alcotest.(check (result unit string))
        (p.Video.Profile.name ^ " valid") (Ok ()) (Video.Profile.validate p))
    Video.Workloads.all

let test_workloads_count_and_names () =
  check int "ten workloads" 10 (List.length Video.Workloads.all);
  check bool "find by paper name" true
    (Video.Workloads.find "theincredibles-tlr2" <> None);
  check bool "unknown name" true (Video.Workloads.find "nosuchclip" = None)

let test_workloads_unique_seeds () =
  let seeds = List.map (fun p -> p.Video.Profile.seed) Video.Workloads.all in
  check int "seeds unique" (List.length seeds)
    (List.length (List.sort_uniq compare seeds))

let test_workloads_brightness_ordering () =
  (* The paper's bright-background clips must be brighter on average
     than the dark epics — that ordering is what drives Fig 9. *)
  let mean_luma profile =
    let clip = Video.Clip_gen.render ~width:32 ~height:24 ~fps:4. profile in
    let total = ref 0. in
    Video.Clip.iter_frames
      (fun _ f -> total := !total +. Image.Raster.mean_luminance f)
      clip;
    !total /. float_of_int clip.Video.Clip.frame_count
  in
  let ice = mean_luma Video.Workloads.ice_age in
  let hunter = mean_luma Video.Workloads.hunter_subres in
  let rotk = mean_luma Video.Workloads.returnoftheking in
  let catwoman = mean_luma Video.Workloads.catwoman in
  check bool "ice_age brighter than rotk" true (ice > rotk +. 50.);
  check bool "hunter brighter than catwoman" true (hunter > catwoman +. 50.)

(* --- Golden render digests --------------------------------------------- *)

(* One MD5 per frame size over the raster bytes of the first 60 frames
   of the ten paper workloads and two parametric clips. The digests
   were taken before the drawing kernels were rewritten to work on
   raster bytes; any change to a rendered bit moves them. *)

let golden_render_profiles =
  Video.Workloads.all
  @ [
      Video.Workloads.parametric ~base_level:40 ~highlight_peak:150 ();
      Video.Workloads.parametric ~motion:25. ~base_level:170 ~highlight_peak:60 ();
    ]

let golden_render_digest ~width ~height =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun profile ->
      let clip = Video.Clip_gen.render ~width ~height ~fps:12. profile in
      for i = 0 to min 60 clip.Video.Clip.frame_count - 1 do
        let frame = clip.Video.Clip.render i in
        Buffer.add_bytes buf (Image.Raster.data frame)
      done)
    golden_render_profiles;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_render_digests =
  [
    ((96, 72), "5e45f7f970dfce8886419f08dfab8ac8");
    ((33, 21), "585605bc0724af4c26f8aebab876faca");
    ((160, 120), "d88d6ef22117cd4fb7deea0e9b6b653c");
  ]

let test_golden_render () =
  List.iter
    (fun ((width, height) as size) ->
      check Alcotest.string
        (Printf.sprintf "%dx%d digest" width height)
        (List.assoc size golden_render_digests)
        (golden_render_digest ~width ~height))
    [ (96, 72); (33, 21); (160, 120) ]

let qtests =
  let profile_gen =
    let open QCheck2.Gen in
    let* seed = 0 -- 1000 in
    let* n_scenes = 1 -- 4 in
    let* scenes =
      list_size (return n_scenes)
        (let* seconds = float_range 0.25 2. in
         let* level = 0 -- 255 in
         return (Video.Profile.scene ~seconds (Video.Profile.Flat level)))
    in
    return { Video.Profile.name = "gen"; seed; scenes }
  in
  [
    QCheck2.Test.make ~name:"scene boundaries partition the clip" profile_gen
      (fun profile ->
        let clip = Video.Clip_gen.render ~width:8 ~height:8 ~fps:4. profile in
        let bounds = Video.Clip_gen.scene_boundaries ~fps:4. profile in
        let rec covers expected = function
          | [] -> expected = clip.Video.Clip.frame_count
          | (first, last) :: rest ->
            first = expected && last >= first && covers (last + 1) rest
        in
        covers 0 bounds);
    QCheck2.Test.make ~name:"generated frames match profile dimensions" profile_gen
      (fun profile ->
        let clip = Video.Clip_gen.render ~width:24 ~height:16 ~fps:4. profile in
        let f = clip.Video.Clip.render 0 in
        Image.Raster.width f = 24 && Image.Raster.height f = 16);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "video"
    [
      ( "clip",
        [
          Alcotest.test_case "of_frames" `Quick test_clip_of_frames;
          Alcotest.test_case "of_frames validation" `Quick test_clip_of_frames_validation;
          Alcotest.test_case "render bounds" `Quick test_clip_render_bounds;
          Alcotest.test_case "iter order" `Quick test_clip_iter_order;
          Alcotest.test_case "map frames" `Quick test_clip_map_frames;
          Alcotest.test_case "max luminance track" `Quick test_max_luminance_track;
        ] );
      ( "profile",
        [
          Alcotest.test_case "validation ok" `Quick test_profile_validation_ok;
          Alcotest.test_case "validation errors" `Quick test_profile_validation_errors;
          Alcotest.test_case "totals" `Quick test_profile_total_seconds;
        ] );
      ( "clip_gen",
        [
          Alcotest.test_case "dimensions" `Quick test_clip_gen_dimensions;
          Alcotest.test_case "deterministic" `Quick test_clip_gen_deterministic;
          Alcotest.test_case "order independent" `Quick test_clip_gen_order_independent;
          Alcotest.test_case "scene boundaries" `Quick test_clip_gen_scene_boundaries;
          Alcotest.test_case "brightness follows profile" `Quick
            test_clip_gen_brightness_follows_profile;
          Alcotest.test_case "fade out" `Quick test_clip_gen_fade_out;
          Alcotest.test_case "rejects invalid" `Quick test_clip_gen_rejects_invalid;
          Alcotest.test_case "highlights raise max" `Quick
            test_clip_gen_highlights_raise_max;
          Alcotest.test_case "vignette corners" `Quick test_clip_gen_vignette_darkens_corners;
          Alcotest.test_case "credit dashes" `Quick test_clip_gen_credits_bright_dashes;
          Alcotest.test_case "motion changes frames" `Quick test_clip_gen_motion_changes_frames;
          Alcotest.test_case "parametric workload" `Quick test_parametric_workload_shape;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "all valid" `Quick test_workloads_all_valid;
          Alcotest.test_case "count and names" `Quick test_workloads_count_and_names;
          Alcotest.test_case "unique seeds" `Quick test_workloads_unique_seeds;
          Alcotest.test_case "brightness ordering" `Slow test_workloads_brightness_ordering;
        ] );
      ("golden", [ Alcotest.test_case "render digests" `Quick test_golden_render ]);
      ("properties", qtests);
    ]

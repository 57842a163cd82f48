(* Tests for the streaming system model: network, negotiation, server
   and the playback simulator. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let device = Display.Device.ipaq_h5555

let two_scene_clip () =
  let profile =
    {
      Video.Profile.name = "stream-test";
      seed = 8;
      scenes =
        [
          Video.Profile.scene ~seconds:1. ~noise_sigma:0. (Video.Profile.Flat 50);
          Video.Profile.scene ~seconds:1. ~noise_sigma:0. (Video.Profile.Flat 210);
        ];
    }
  in
  Video.Clip_gen.render ~width:24 ~height:18 ~fps:8. profile

(* --- Netsim ------------------------------------------------------------- *)

let test_netsim_packet_count () =
  let link = Streaming.Netsim.wlan_80211b in
  check int "empty payload" 0 (Streaming.Netsim.packet_count link 0);
  check int "one byte" 1 (Streaming.Netsim.packet_count link 1);
  check int "exactly one packet" 1 (Streaming.Netsim.packet_count link 1400);
  check int "one byte over" 2 (Streaming.Netsim.packet_count link 1401)

let test_netsim_wire_bytes () =
  let link =
    Streaming.Netsim.make ~bandwidth_bps:1_000_000. ~packet_payload_bytes:100
      ~per_packet_overhead_bytes:10
  in
  check int "wire bytes" 330 (Streaming.Netsim.wire_bytes link 300);
  check (Alcotest.float 1e-9) "transfer time" (330. *. 8. /. 1_000_000.)
    (Streaming.Netsim.transfer_time_s link 300)

let test_netsim_annotation_overhead_small () =
  (* A few-hundred-byte annotation on a megabyte video: well under 1%. *)
  let link = Streaming.Netsim.wlan_80211b in
  let ratio =
    Streaming.Netsim.annotation_overhead_ratio link ~video_bytes:2_000_000
      ~annotation_bytes:300
  in
  check bool "overhead below 0.1%" true (ratio < 0.001)

let test_netsim_validation () =
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Netsim.make: bandwidth must be positive") (fun () ->
      ignore
        (Streaming.Netsim.make ~bandwidth_bps:0. ~packet_payload_bytes:100
           ~per_packet_overhead_bytes:0))

(* --- Negotiation -------------------------------------------------------- *)

let test_negotiation_accepts_grid_quality () =
  let hello =
    {
      Streaming.Negotiation.device;
      requested_quality = Annotation.Quality_level.Loss_10;
    }
  in
  match Streaming.Negotiation.negotiate hello with
  | Error e -> Alcotest.fail e
  | Ok session ->
    check bool "same quality" true
      (session.Streaming.Negotiation.quality = Annotation.Quality_level.Loss_10);
    check bool "server-side by default" true
      (session.Streaming.Negotiation.mapping = Streaming.Negotiation.Server_side)

let test_negotiation_snaps_custom_quality () =
  let hello =
    {
      Streaming.Negotiation.device;
      requested_quality = Annotation.Quality_level.Custom 0.12;
    }
  in
  match Streaming.Negotiation.negotiate hello with
  | Error e -> Alcotest.fail e
  | Ok session ->
    (* 12% snaps to the nearest advertised level (10% or 15%). *)
    check bool "snapped to grid" true
      (List.exists
         (fun q -> Annotation.Quality_level.compare q session.Streaming.Negotiation.quality = 0)
         Streaming.Negotiation.offer_qualities)

let test_negotiation_client_side_mapping () =
  let hello =
    {
      Streaming.Negotiation.device;
      requested_quality = Annotation.Quality_level.Lossless;
    }
  in
  match
    Streaming.Negotiation.negotiate ~prefer:Streaming.Negotiation.Client_side hello
  with
  | Error e -> Alcotest.fail e
  | Ok session ->
    check bool "client-side honoured" true
      (session.Streaming.Negotiation.mapping = Streaming.Negotiation.Client_side)

(* --- Server ------------------------------------------------------------- *)

let make_session quality =
  { Streaming.Negotiation.device; quality; mapping = Streaming.Negotiation.Server_side }

let test_server_catalog () =
  let server = Streaming.Server.create () in
  Streaming.Server.add_clip server (two_scene_clip ());
  Alcotest.(check (list string)) "names" [ "stream-test" ] (Streaming.Server.clip_names server);
  check bool "unknown clip" true
    (Result.is_error
       (Streaming.Server.prepare server ~name:"nope"
          ~session:(make_session Annotation.Quality_level.Lossless)))

let test_server_prepare () =
  let server = Streaming.Server.create () in
  let clip = two_scene_clip () in
  Streaming.Server.add_clip server clip;
  match
    Streaming.Server.prepare server ~name:"stream-test"
      ~session:(make_session Annotation.Quality_level.Lossless)
  with
  | Error e -> Alcotest.fail e
  | Ok prepared ->
    check bool "track covers clip" true
      (prepared.Streaming.Server.track.Annotation.Track.total_frames
       = clip.Video.Clip.frame_count);
    check bool "annotations non-empty" true
      (String.length prepared.Streaming.Server.annotation_bytes > 0);
    (* Annotation side-channel decodes back to the same registers. *)
    (match Annotation.Encoding.decode prepared.Streaming.Server.annotation_bytes with
    | Error e -> Alcotest.fail e
    | Ok decoded ->
      Alcotest.(check (array int))
        "wire track matches"
        (Annotation.Track.register_track prepared.Streaming.Server.track)
        (Annotation.Track.register_track decoded));
    (* The compensated stream brightens the dark scene. *)
    check bool "compensated stream brighter" true
      (Image.Raster.mean_luminance
         (prepared.Streaming.Server.compensated.Video.Clip.render 0)
       > Image.Raster.mean_luminance (clip.Video.Clip.render 0))

let test_server_client_side_mapping () =
  let server = Streaming.Server.create () in
  Streaming.Server.add_clip server (two_scene_clip ());
  let session =
    {
      Streaming.Negotiation.device;
      quality = Annotation.Quality_level.Loss_10;
      mapping = Streaming.Negotiation.Client_side;
    }
  in
  match Streaming.Server.prepare server ~name:"stream-test" ~session with
  | Error e -> Alcotest.fail e
  | Ok prepared ->
    check bool "track is device-neutral" true
      (prepared.Streaming.Server.track.Annotation.Track.device_name
       = Annotation.Neutral.generic_device_name);
    (* The client finishes the mapping and lands on the same registers
       a server-mapped session would have shipped. *)
    let mapped =
      Annotation.Neutral.map_to_device device prepared.Streaming.Server.track
    in
    let server_side =
      match
        Streaming.Server.prepare server ~name:"stream-test"
          ~session:(make_session Annotation.Quality_level.Loss_10)
      with
      | Ok p -> p.Streaming.Server.track
      | Error e -> Alcotest.fail e
    in
    Alcotest.(check (array int))
      "same registers either way"
      (Annotation.Track.register_track server_side)
      (Annotation.Track.register_track mapped)

let test_server_profile_cached () =
  let server = Streaming.Server.create () in
  Streaming.Server.add_clip server (two_scene_clip ());
  let p1 = Streaming.Server.profile server "stream-test" in
  let p2 = Streaming.Server.profile server "stream-test" in
  match (p1, p2) with
  | Ok a, Ok b -> check bool "same cached profile" true (a == b)
  | _ -> Alcotest.fail "profiling failed"

let test_server_cache_hit_miss () =
  let server = Streaming.Server.create () in
  Streaming.Server.add_clip server (two_scene_clip ());
  let prepare quality =
    match
      Streaming.Server.prepare server ~name:"stream-test"
        ~session:(make_session quality)
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let first = prepare Annotation.Quality_level.Loss_10 in
  Alcotest.(check (pair int int)) "first prepare misses" (0, 1)
    (Streaming.Server.cache_stats server);
  let again = prepare Annotation.Quality_level.Loss_10 in
  Alcotest.(check (pair int int)) "identical session hits" (1, 1)
    (Streaming.Server.cache_stats server);
  check bool "hit serves the cached stream" true (first == again);
  ignore (prepare Annotation.Quality_level.Loss_5);
  Alcotest.(check (pair int int)) "new quality misses" (1, 2)
    (Streaming.Server.cache_stats server);
  check int "two distinct streams cached" 2 (Streaming.Server.cache_size server);
  (* A cached prepare must serve the same bytes a fresh server builds. *)
  let fresh = Streaming.Server.create () in
  Streaming.Server.add_clip fresh (two_scene_clip ());
  (match
     Streaming.Server.prepare fresh ~name:"stream-test"
       ~session:(make_session Annotation.Quality_level.Loss_10)
   with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check string) "cached = fresh annotation bytes"
      p.Streaming.Server.annotation_bytes
      again.Streaming.Server.annotation_bytes);
  (* Replacing the clip evicts its prepared streams. *)
  Streaming.Server.add_clip server (two_scene_clip ());
  check int "re-adding the clip evicts" 0 (Streaming.Server.cache_size server)

let test_server_scene_params_bypass_cache () =
  let server = Streaming.Server.create () in
  Streaming.Server.add_clip server (two_scene_clip ());
  (match
     Streaming.Server.prepare server
       ~scene_params:Annotation.Scene_detect.per_frame_params
       ~name:"stream-test"
       ~session:(make_session Annotation.Quality_level.Loss_10)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (pair int int))
    "explicit scene_params never touch the cache" (0, 0)
    (Streaming.Server.cache_stats server);
  check int "nothing cached" 0 (Streaming.Server.cache_size server)

let test_server_prepare_many_stress () =
  (* Hammer one clip from four domains: the profile must run exactly
     once, every result must be Ok, and the streams must be the ones a
     sequential server would have built. *)
  Obs.with_enabled @@ fun () ->
  let profiles = Obs.counter "annot_profiles_total" [] in
  let before = Obs.Metrics.Counter.value profiles in
  let server = Streaming.Server.create () in
  Streaming.Server.add_clip server (two_scene_clip ());
  let qualities =
    [
      Annotation.Quality_level.Lossless;
      Annotation.Quality_level.Loss_5;
      Annotation.Quality_level.Loss_10;
      Annotation.Quality_level.Loss_15;
    ]
  in
  let specs =
    List.concat_map
      (fun q -> List.init 8 (fun _ -> ("stream-test", make_session q)))
      qualities
  in
  let results =
    Par.Pool.with_pool ~domains:4 (fun pool ->
        Streaming.Server.prepare_many ~pool server specs)
  in
  check int "one result per spec" (List.length specs) (List.length results);
  let bytes_of = function
    | Ok p -> p.Streaming.Server.annotation_bytes
    | Error e -> Alcotest.fail e
  in
  let results = List.map bytes_of results in
  check int "clip profiled exactly once under contention" 1
    (Obs.Metrics.Counter.value profiles - before);
  let sequential =
    let fresh = Streaming.Server.create () in
    Streaming.Server.add_clip fresh (two_scene_clip ());
    List.map bytes_of (Streaming.Server.prepare_many fresh specs)
  in
  check bool "parallel batch = sequential batch" true
    (List.equal String.equal results sequential);
  (* Racing sessions on a cold key may each count a miss (the build
     runs outside the cache lock, first insert wins), so the exact
     split is load-dependent — but every lookup is counted and the
     cache converges on one entry per key. *)
  let hits, misses = Streaming.Server.cache_stats server in
  check int "every spec counted once" (List.length specs) (hits + misses);
  check bool "at least one miss per distinct key" true
    (misses >= List.length qualities);
  check int "one cached stream per distinct key" (List.length qualities)
    (Streaming.Server.cache_size server)

let test_server_prepare_many_bulkhead_stress () =
  (* 64 racing sessions from eight domains through a saturated
     bulkhead: cache hits are served regardless, every cold build is
     shed to the passthrough and never cached, and the clip is still
     profiled exactly once. Saturating the compartment by hand (one
     un-released admission, queue limit 0) makes the shed decisions
     deterministic — a racing batch alone could in principle never
     overlap. *)
  Obs.with_enabled @@ fun () ->
  let profiles = Obs.counter "annot_profiles_total" [] in
  let before = Obs.Metrics.Counter.value profiles in
  let server = Streaming.Server.create () in
  let clip = two_scene_clip () in
  Streaming.Server.add_clip server clip;
  (* Pre-warm one key so the batch mixes hits with shed misses. *)
  (match
     Streaming.Server.prepare server ~name:"stream-test"
       ~session:(make_session Annotation.Quality_level.Loss_10)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let bulkhead =
    Resilience.Bulkhead.create
      ~config:{ Resilience.Bulkhead.capacity = 1; queue_limit = 0 }
      ~name:"test-prepare" ()
  in
  let occupied = Resilience.Bulkhead.enter bulkhead in
  Alcotest.(check bool) "saturating admission admitted" true
    (occupied.Resilience.Bulkhead.decision = Resilience.Bulkhead.Admitted);
  let qualities =
    [
      Annotation.Quality_level.Lossless;
      Annotation.Quality_level.Loss_5;
      Annotation.Quality_level.Loss_10;
      Annotation.Quality_level.Loss_15;
    ]
  in
  let specs =
    List.concat_map
      (fun q -> List.init 16 (fun _ -> ("stream-test", make_session q)))
      qualities
  in
  let results =
    Par.Pool.with_pool ~domains:8 (fun pool ->
        Streaming.Server.prepare_many ~pool ~bulkhead server specs)
  in
  check int "one result per spec" (List.length specs) (List.length results);
  let ok =
    List.map (function Ok p -> p | Error e -> Alcotest.fail e) results
  in
  (* A passthrough shares the stored clip; a real build compensates a
     copy. The pre-warmed quality is served from the cache even though
     the compartment is full; every other quality is shed. *)
  let shed, served =
    List.partition (fun p -> p.Streaming.Server.compensated == clip) ok
  in
  check int "48 cold builds shed" 48 (List.length shed);
  check int "16 warm lookups served from cache" 16 (List.length served);
  List.iter
    (fun p ->
      check bool "served results are the pre-warmed quality" true
        (p.Streaming.Server.session.Streaming.Negotiation.quality
        = Annotation.Quality_level.Loss_10))
    served;
  check int "shed results never cached" 1 (Streaming.Server.cache_size server);
  check int "profiled exactly once (the pre-warm)" 1
    (Obs.Metrics.Counter.value profiles - before);
  let hits, misses = Streaming.Server.cache_stats server in
  check int "every lookup counted" 65 (hits + misses);
  check int "warm lookups hit" 16 (hits - 0);
  (* Free the compartment: the next prepare is admitted, builds for
     real and enters the cache. *)
  Resilience.Bulkhead.release bulkhead;
  (match
     Streaming.Server.prepare server ~bulkhead ~name:"stream-test"
       ~session:(make_session Annotation.Quality_level.Loss_5)
   with
  | Ok p ->
    check bool "admitted build is a real stream" true
      (not (p.Streaming.Server.compensated == clip))
  | Error e -> Alcotest.fail e);
  check int "admitted build is cached" 2 (Streaming.Server.cache_size server);
  let admitted, queued, shed_total = Resilience.Bulkhead.stats bulkhead in
  check int "one saturating + one final admission" 2 admitted;
  check int "nothing ever queued" 0 queued;
  check int "48 sheds counted" 48 shed_total

let test_server_encode_video () =
  let server = Streaming.Server.create () in
  Streaming.Server.add_clip server (two_scene_clip ());
  match Streaming.Server.encode_video server ~name:"stream-test" with
  | Error e -> Alcotest.fail e
  | Ok encoded ->
    check bool "stream non-trivial" true (Codec.Encoder.total_bytes encoded > 100)

(* --- Playback ----------------------------------------------------------- *)

let test_playback_full_backlight_baseline () =
  (* With registers pinned at 255 there are no savings. *)
  let registers = Array.make 16 255 in
  let report =
    Streaming.Playback.run_with_registers ~device
      ~quality:Annotation.Quality_level.Lossless ~clip_name:"c" ~fps:8.
      ~annotation_bytes:0 registers
  in
  check (Alcotest.float 1e-9) "no backlight savings" 0.
    report.Streaming.Playback.backlight_savings;
  check (Alcotest.float 1e-9) "no total savings" 0.
    report.Streaming.Playback.total_savings;
  check int "no switches" 0 report.Streaming.Playback.switch_count

let test_playback_dimmed_saves () =
  let registers = Array.make 16 64 in
  let report =
    Streaming.Playback.run_with_registers ~device
      ~quality:Annotation.Quality_level.Loss_10 ~clip_name:"c" ~fps:8.
      ~annotation_bytes:0 registers
  in
  check bool "backlight savings positive" true
    (report.Streaming.Playback.backlight_savings > 0.5);
  check bool "total savings positive but smaller" true
    (report.Streaming.Playback.total_savings > 0.
     && report.Streaming.Playback.total_savings
        < report.Streaming.Playback.backlight_savings)

let test_playback_total_tracks_backlight_share () =
  (* Total savings should approximate backlight savings times the
     backlight share of device power. *)
  let registers = Array.make 16 0 in
  let report =
    Streaming.Playback.run_with_registers ~device
      ~quality:Annotation.Quality_level.Loss_20 ~clip_name:"c" ~fps:8.
      ~annotation_bytes:0 registers
  in
  let share = Power.Model.backlight_share device Power.State.playback_full in
  let expected = report.Streaming.Playback.backlight_savings *. share in
  check bool
    (Printf.sprintf "total %.3f tracks backlight*share %.3f"
       report.Streaming.Playback.total_savings expected)
    true
    (abs_float (report.Streaming.Playback.total_savings -. expected) < 0.08)

let test_playback_run_on_clip () =
  let clip = two_scene_clip () in
  let report =
    Streaming.Playback.run ~device ~quality:Annotation.Quality_level.Lossless clip
  in
  check int "frames" clip.Video.Clip.frame_count report.Streaming.Playback.frames;
  check bool "savings positive on dark scene" true
    (report.Streaming.Playback.backlight_savings > 0.1);
  check bool "annotations counted" true (report.Streaming.Playback.annotation_bytes > 0);
  check (Alcotest.float 1e-9) "duration" 2. report.Streaming.Playback.duration_s

let test_playback_instantaneous_savings () =
  let clip = two_scene_clip () in
  let track = Annotation.Annotator.annotate ~device ~quality:Annotation.Quality_level.Lossless clip in
  let series = Streaming.Playback.instantaneous_backlight_savings ~device track in
  check int "one value per frame" clip.Video.Clip.frame_count (Array.length series);
  (* Dark scene saves more than bright scene. *)
  check bool "dark saves more" true (series.(0) > series.(15));
  Array.iter (fun s -> check bool "in [0,1]" true (s >= 0. && s <= 1.)) series

let test_playback_quality_evaluation () =
  let clip = two_scene_clip () in
  let track = Annotation.Annotator.annotate ~device ~quality:Annotation.Quality_level.Lossless clip in
  let rig = Camera.Snapshot.noiseless_rig device in
  let verdicts =
    Streaming.Playback.evaluate_quality ~rig ~device ~clip ~track ~sample_every:4
  in
  check int "four samples" 4 (List.length verdicts);
  List.iter
    (fun (i, v) ->
      check bool
        (Format.asprintf "frame %d acceptable: %a" i Camera.Quality.pp_verdict v)
        true
        (Camera.Quality.acceptable v))
    verdicts

let test_playback_empty_rejected () =
  Alcotest.check_raises "empty registers"
    (Invalid_argument "Playback: empty register track") (fun () ->
      ignore
        (Streaming.Playback.run_with_registers ~device
           ~quality:Annotation.Quality_level.Lossless ~clip_name:"c" ~fps:8.
           ~annotation_bytes:0 [||]))

(* --- Dvfs_playback ------------------------------------------------------- *)

(* A cycle track with quiet P-frame stretches and periodic I-frame
   spikes, like a real gop structure. *)
let spiky_cycles ~frames ~gop ~quiet ~spike =
  Array.init frames (fun i -> if i mod gop = 0 then spike else quiet)

let test_dvfs_annotated_meets_deadlines () =
  let cycles = spiky_cycles ~frames:60 ~gop:12 ~quiet:4e6 ~spike:25e6 in
  let r =
    Streaming.Dvfs_playback.run ~fps:12. cycles
      Streaming.Dvfs_playback.Annotated_workload
  in
  check int "no misses" 0 r.Streaming.Dvfs_playback.deadline_misses;
  check bool "meaningful savings" true (r.Streaming.Dvfs_playback.savings > 0.3)

let test_dvfs_history_misses_spikes () =
  let cycles = spiky_cycles ~frames:60 ~gop:12 ~quiet:4e6 ~spike:25e6 in
  let r =
    Streaming.Dvfs_playback.run ~fps:12. cycles
      (Streaming.Dvfs_playback.History_max { window = 6; margin = 1.1 })
  in
  (* Every spike follows 11 quiet frames: the 6-frame window forgets
     the previous spike, so every gop boundary misses. *)
  check bool "misses at spikes" true (r.Streaming.Dvfs_playback.deadline_misses >= 4)

let test_dvfs_full_speed_baseline () =
  let cycles = spiky_cycles ~frames:24 ~gop:12 ~quiet:4e6 ~spike:25e6 in
  let r =
    Streaming.Dvfs_playback.run ~fps:12. cycles Streaming.Dvfs_playback.Always_full
  in
  check int "no misses at full speed" 0 r.Streaming.Dvfs_playback.deadline_misses;
  check (Alcotest.float 1e-9) "zero savings" 0. r.Streaming.Dvfs_playback.savings;
  check (Alcotest.float 1e-9) "mean frequency is top" 400.
    r.Streaming.Dvfs_playback.mean_frequency_mhz

let test_dvfs_annotated_beats_history_energy () =
  let cycles = spiky_cycles ~frames:120 ~gop:12 ~quiet:4e6 ~spike:25e6 in
  let run p = Streaming.Dvfs_playback.run ~fps:12. cycles p in
  let annotated = run Streaming.Dvfs_playback.Annotated_workload in
  let history =
    run (Streaming.Dvfs_playback.History_max { window = 6; margin = 1.1 })
  in
  check bool "annotated at most history energy" true
    (annotated.Streaming.Dvfs_playback.cpu_energy_mj
     <= history.Streaming.Dvfs_playback.cpu_energy_mj +. 1e-9)

let test_dvfs_decode_cycles_reflect_frame_sizes () =
  let profile =
    {
      Video.Profile.name = "dvfs-test";
      seed = 33;
      scenes =
        [
          Video.Profile.scene ~seconds:2.
            ~subjects:
              [
                { Video.Profile.level = 200; size = 150; speed = 12.; vertical_phase = 0.5 };
              ]
            ~noise_sigma:2.
            (Video.Profile.Vertical { top = 30; bottom = 90 });
        ];
    }
  in
  let clip = Video.Clip_gen.render ~width:48 ~height:32 ~fps:8. profile in
  let encoded =
    Codec.Encoder.encode_clip ~params:{ Codec.Stream.default_params with gop = 8 } clip
  in
  let cycles = Streaming.Dvfs_playback.decode_cycles encoded in
  check int "one estimate per frame" clip.Video.Clip.frame_count (Array.length cycles);
  Array.iter (fun c -> check bool "positive cost" true (c > 0.)) cycles;
  (* The I frame must cost more than the following P frame. *)
  check bool "I costs more than P" true (cycles.(0) > cycles.(1))

let test_dvfs_annotation_bytes_small () =
  let cycles = spiky_cycles ~frames:300 ~gop:12 ~quiet:4e6 ~spike:25e6 in
  let bytes = Streaming.Dvfs_playback.annotation_bytes cycles in
  check bool "couple of bytes per frame" true (bytes > 300 && bytes < 4 * 300)

let test_dvfs_validation () =
  Alcotest.check_raises "empty track"
    (Invalid_argument "Dvfs_playback.run: empty cycle track") (fun () ->
      ignore
        (Streaming.Dvfs_playback.run ~fps:12. [||]
           Streaming.Dvfs_playback.Always_full))

(* --- Session -------------------------------------------------------------------- *)

let moving_clip () =
  let profile =
    {
      Video.Profile.name = "transport-test";
      seed = 41;
      scenes =
        [
          Video.Profile.scene ~seconds:3. ~noise_sigma:1.5
            ~subjects:
              [
                { Video.Profile.level = 210; size = 160; speed = 12.; vertical_phase = 0.5 };
              ]
            (Video.Profile.Vertical { top = 30; bottom = 80 });
        ];
    }
  in
  Video.Clip_gen.render ~width:48 ~height:32 ~fps:8. profile


let test_session_clean_run () =
  let clip = moving_clip () in
  let config = Streaming.Session.default_config ~device in
  match Streaming.Session.run config clip with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check bool "annotations survived" true r.Streaming.Session.annotations_survived;
    check int "nothing concealed" 0 r.Streaming.Session.concealed_frames;
    check bool "backlight saves" true (r.Streaming.Session.backlight_savings > 0.1);
    check bool "cpu saves" true (r.Streaming.Session.cpu_savings > 0.1);
    check bool "radio saves" true (r.Streaming.Session.radio_savings > 0.1);
    check bool "device savings combine" true
      (r.Streaming.Session.device_savings > 0.15
       && r.Streaming.Session.device_savings < 0.9);
    check bool "energy consistent" true
      (r.Streaming.Session.device_energy_mj < r.Streaming.Session.baseline_energy_mj)

let test_session_lossy_run () =
  let clip = moving_clip () in
  (* 5 % frame loss over a short clip can spare every frame of one
     seed, so a few seeds play: every one stays watchable, and the
     loss shows up as concealment in at least one. *)
  let concealed = ref 0 in
  for seed = 1 to 4 do
    let config =
      { (Streaming.Session.default_config ~device) with
        Streaming.Session.fault = Some (Streaming.Fault.bernoulli ~rate:0.05);
        seed }
    in
    match Streaming.Session.run config clip with
    | Error e -> Alcotest.fail e
    | Ok r ->
      concealed := !concealed + r.Streaming.Session.concealed_frames;
      if r.Streaming.Session.concealed_frames > 0 then
        check bool "psnr degraded but finite" true
          (r.Streaming.Session.video_mean_psnr > 20.
           && r.Streaming.Session.video_mean_psnr < 99.)
  done;
  check bool "some frames concealed" true (!concealed > 0)

let test_session_forced_first_frame_counted () =
  (* With nothing decoded yet a lost first frame cannot be concealed:
     the session delivers it anyway and counts the forced delivery.
     The session draws its video loss mask with [seed + 1]; the
     concealment count below ties that draw to the run. *)
  Obs.with_enabled @@ fun () ->
  let clip = moving_clip () in
  let fault = Streaming.Fault.bernoulli ~rate:0.5 in
  let frames = clip.Video.Clip.frame_count in
  let mask seed = Streaming.Fault.loss_mask fault ~seed:(seed + 1) ~n:frames in
  let rec find_seed first_lost seed =
    if seed > 200 then Alcotest.fail "no seed found"
    else if (mask seed).(0) = first_lost then seed
    else find_seed first_lost (seed + 1)
  in
  let forced = Obs.counter "forced_first_frame_deliveries_total" [] in
  let bumps seed =
    let before = Obs.Metrics.Counter.value forced in
    let config =
      { (Streaming.Session.default_config ~device) with
        Streaming.Session.fault = Some fault;
        seed }
    in
    match Streaming.Session.run config clip with
    | Error e -> Alcotest.fail e
    | Ok r ->
      let lost_after_first =
        Array.fold_left (fun n l -> if l then n + 1 else n) 0 (mask seed)
        - if (mask seed).(0) then 1 else 0
      in
      check int "every later lost frame concealed" lost_after_first
        r.Streaming.Session.concealed_frames;
      Obs.Metrics.Counter.value forced - before
  in
  check int "frame 0 lost: one forced delivery" 1 (bumps (find_seed true 1));
  check int "frame 0 kept: no forced delivery" 0 (bumps (find_seed false 1))

let test_session_annotation_loss_falls_back () =
  let clip = moving_clip () in
  (* A brutal side-channel loss rate: FEC cannot recover, the client
     must fall back to full backlight rather than guess. *)
  let rec find_failing_seed seed =
    if seed > 200 then Alcotest.fail "no failing seed found"
    else begin
      let config =
        { (Streaming.Session.default_config ~device) with
          Streaming.Session.fault = Some (Streaming.Fault.bernoulli ~rate:0.6);
          seed }
      in
      match Streaming.Session.run config clip with
      | Ok r when not r.Streaming.Session.annotations_survived -> r
      | Ok _ | Error _ -> find_failing_seed (seed + 1)
    end
  in
  let r = find_failing_seed 1 in
  check (Alcotest.float 1e-9) "no dimming without annotations" 0.
    r.Streaming.Session.backlight_savings

let test_session_client_mapping_equivalent () =
  let clip = moving_clip () in
  let run mapping =
    let config =
      { (Streaming.Session.default_config ~device) with Streaming.Session.mapping }
    in
    match Streaming.Session.run config clip with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let server = run Streaming.Negotiation.Server_side in
  let client = run Streaming.Negotiation.Client_side in
  check (Alcotest.float 1e-9) "same backlight savings either mapping"
    server.Streaming.Session.backlight_savings
    client.Streaming.Session.backlight_savings

let test_session_ramp_option () =
  let clip = moving_clip () in
  let config =
    { (Streaming.Session.default_config ~device) with
      Streaming.Session.ramp_step = Some 8 }
  in
  match Streaming.Session.run config clip with
  | Error e -> Alcotest.fail e
  | Ok r ->
    (* Ramping only ever raises registers: savings shrink or hold. *)
    let plain =
      match Streaming.Session.run (Streaming.Session.default_config ~device) clip with
      | Ok p -> p
      | Error e -> Alcotest.fail e
    in
    check bool "ramp never increases savings" true
      (r.Streaming.Session.backlight_savings
       <= plain.Streaming.Session.backlight_savings +. 1e-9)

(* --- Fec ---------------------------------------------------------------------- *)

let sample_payload n =
  String.init n (fun i -> Char.chr ((i * 37) mod 256))

let test_fec_no_loss_roundtrip () =
  let payload = sample_payload 300 in
  let protected_payload = Streaming.Fec.protect ~packet_size:64 ~group_size:4 payload in
  let present = Array.map Option.some protected_payload.Streaming.Fec.packets in
  Alcotest.(check (result string string))
    "identity" (Ok payload)
    (Streaming.Fec.recover protected_payload ~present)

let test_fec_single_loss_per_group_recovers () =
  let payload = sample_payload 300 in
  let protected_payload = Streaming.Fec.protect ~packet_size:64 ~group_size:4 payload in
  (* Lose one data packet in each group (indices 0 and 4). *)
  let present = Array.map Option.some protected_payload.Streaming.Fec.packets in
  present.(0) <- None;
  present.(4) <- None;
  Alcotest.(check (result string string))
    "recovered" (Ok payload)
    (Streaming.Fec.recover protected_payload ~present)

let test_fec_recovers_short_tail_packet () =
  (* 130 bytes at 64-byte packets: the last packet is 2 bytes; losing
     it exercises the trim on reconstruction. *)
  let payload = sample_payload 130 in
  let protected_payload = Streaming.Fec.protect ~packet_size:64 ~group_size:4 payload in
  let present = Array.map Option.some protected_payload.Streaming.Fec.packets in
  present.(2) <- None;
  Alcotest.(check (result string string))
    "tail recovered" (Ok payload)
    (Streaming.Fec.recover protected_payload ~present)

let test_fec_double_loss_fails () =
  let payload = sample_payload 300 in
  let protected_payload = Streaming.Fec.protect ~packet_size:64 ~group_size:4 payload in
  let present = Array.map Option.some protected_payload.Streaming.Fec.packets in
  present.(0) <- None;
  present.(1) <- None;
  check bool "two losses in a group unrecoverable" true
    (Result.is_error (Streaming.Fec.recover protected_payload ~present))

let test_fec_parity_loss_harmless () =
  let payload = sample_payload 300 in
  let protected_payload = Streaming.Fec.protect ~packet_size:64 ~group_size:4 payload in
  let present = Array.map Option.some protected_payload.Streaming.Fec.packets in
  (* Lose only parity packets. *)
  for i = protected_payload.Streaming.Fec.data_packets
        to Array.length present - 1 do
    present.(i) <- None
  done;
  Alcotest.(check (result string string))
    "data alone suffices" (Ok payload)
    (Streaming.Fec.recover protected_payload ~present)

let test_fec_overhead_bounded () =
  let payload = sample_payload 1024 in
  let protected_payload = Streaming.Fec.protect ~packet_size:64 ~group_size:4 payload in
  (* One 64-byte parity per 4 x 64-byte data: 25% overhead. *)
  check bool "overhead about a quarter" true
    (Streaming.Fec.overhead_ratio protected_payload < 0.3)

let prop_fec_any_single_loss_recovers =
  QCheck2.Test.make ~name:"fec recovers any single packet loss"
    QCheck2.Gen.(pair (1 -- 500) (0 -- 100))
    (fun (len, salt) ->
      let payload = sample_payload len in
      let protected_payload = Streaming.Fec.protect ~packet_size:32 ~group_size:3 payload in
      let n = Array.length protected_payload.Streaming.Fec.packets in
      let lost_index = salt mod n in
      let present = Array.map Option.some protected_payload.Streaming.Fec.packets in
      present.(lost_index) <- None;
      Streaming.Fec.recover protected_payload ~present = Ok payload)

(* --- Transport -------------------------------------------------------------- *)

let packetize_clip ~gop clip =
  let encoded =
    Codec.Encoder.encode_clip ~params:{ Codec.Stream.default_params with gop } clip
  in
  match Streaming.Transport.packetize encoded with
  | Ok p -> (p, encoded)
  | Error e -> Alcotest.fail e

let packetized_clip ?(gop = 8) () = fst (packetize_clip ~gop (moving_clip ()))

let receive_ok packetized ~lost =
  match Streaming.Transport.receive packetized ~lost with
  | Ok received -> received
  | Error e -> Alcotest.fail e

(* The transport as it was before it scored frames itself: every frame
   decoded into fresh planes, a lost one shown as the previous
   picture, every picture kept in RGB, the reference taken from a
   whole-stream [Decoder.decode], and each frame scored with
   [Metrics.psnr]. Returns the per-frame scores and the concealed and
   drifted counts under the same chain-damage rule. *)
let oracle_scores (p : Streaming.Transport.packetized) (encoded : Codec.Encoder.encoded)
    ~lost =
  let info = p.Streaming.Transport.info in
  let width = info.Codec.Decoder.info_width and height = info.Codec.Decoder.info_height in
  let clean = Codec.Decoder.decode_exn encoded.Codec.Encoder.data in
  let reference = ref None and dirty = ref false in
  let concealed = ref 0 and drifted = ref 0 in
  let pictures =
    Array.mapi
      (fun i payload ->
        if lost.(i) then
          match !reference with
          | Some prev ->
            incr concealed;
            dirty := true;
            Codec.Plane.to_raster_cropped prev ~width ~height
          | None -> Alcotest.fail "first frame lost"
        else
          let planes = Codec.Decoder.reference_planes info in
          match
            Codec.Decoder.decode_frame_into ~scratch:(Codec.Block_codec.scratch ())
              ~into:planes ~info ~reference:!reference payload
          with
          | Ok () ->
            (match p.Streaming.Transport.frame_types.(i) with
            | Codec.Stream.I_frame -> dirty := false
            | Codec.Stream.P_frame -> if !dirty then incr drifted);
            reference := Some planes;
            Codec.Plane.to_raster_cropped planes ~width ~height
          | Error e -> Alcotest.fail e)
      p.Streaming.Transport.payloads
  in
  ( Array.mapi (fun i picture -> Image.Metrics.psnr clean.Codec.Decoder.frames.(i) picture)
      pictures,
    !concealed,
    !drifted )

let frames_decoded () =
  let c t =
    Obs.Metrics.Counter.value (Obs.counter "codec_frames_decoded_total" [ ("type", t) ])
  in
  c "I" + c "P"

(* [f ()] and the number of frames the decoder reconstructed in it. *)
let counting_decodes f =
  Obs.with_enabled @@ fun () ->
  let before = frames_decoded () in
  let r = f () in
  (r, frames_decoded () - before)

let same_scores a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let test_transport_lossless_matches_plain_decode () =
  let packetized, encoded = packetize_clip ~gop:8 (moving_clip ()) in
  let n = Array.length packetized.Streaming.Transport.payloads in
  let lost = Array.make n false in
  let received, decodes = counting_decodes (fun () -> receive_ok packetized ~lost) in
  check int "nothing concealed" 0 received.Streaming.Transport.concealed;
  check int "nothing drifted" 0 received.Streaming.Transport.drifted;
  check int "each frame decoded once" n decodes;
  let oracle, _, _ = oracle_scores packetized encoded ~lost in
  Array.iteri
    (fun i psnr ->
      check bool (Printf.sprintf "frame %d identical" i) true
        (psnr = infinity && oracle.(i) = infinity))
    received.Streaming.Transport.psnr;
  check (Alcotest.float 0.) "capped mean" 99. (Streaming.Transport.mean_psnr received)

let test_transport_concealment_recovers_at_i_frame () =
  let packetized = packetized_clip ~gop:8 () in
  let n = Array.length packetized.Streaming.Transport.payloads in
  let lost = Array.make n false in
  lost.(3) <- true;
  let received = receive_ok packetized ~lost in
  check int "one concealed" 1 received.Streaming.Transport.concealed;
  (* Frames 4-7 drift; frame 8 is the next I-frame and recovers. *)
  check int "drift until the next I" 4 received.Streaming.Transport.drifted;
  let psnr i = received.Streaming.Transport.psnr.(i) in
  check bool "pre-loss frame intact" true (psnr 2 = infinity);
  check bool "drifting frame degraded" true (psnr 5 < 50.);
  check bool "recovered at I frame" true (psnr 8 = infinity)

let test_transport_first_frame_loss_fails () =
  let packetized = packetized_clip () in
  let n = Array.length packetized.Streaming.Transport.payloads in
  let lost = Array.make n false in
  lost.(0) <- true;
  check bool "unbootstrappable session rejected" true
    (Result.is_error (Streaming.Transport.receive packetized ~lost))

let test_transport_bernoulli_deterministic () =
  let mask rate n = Streaming.Fault.(loss_mask (bernoulli ~rate)) ~seed:5 ~n in
  let a = mask 0.3 100 and b = mask 0.3 100 in
  check bool "same seed, same mask" true (a = b);
  let none = mask 0. 50 in
  check bool "zero rate loses nothing" true (Array.for_all not none)

let test_transport_random_loss_never_crashes () =
  let packetized = packetized_clip () in
  let n = Array.length packetized.Streaming.Transport.payloads in
  for seed = 0 to 20 do
    let lost =
      Streaming.Fault.loss_mask (Streaming.Fault.bernoulli ~rate:0.3) ~seed ~n
    in
    lost.(0) <- false;
    match Streaming.Transport.receive packetized ~lost with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("unexpected decode failure: " ^ e)
  done

(* Scores, counts and decoder runs of [receive] against the oracle;
   returns how many frames scored below [infinity]. *)
let check_against_oracle ~what packetized encoded ~lost =
  let n = Array.length lost in
  let received, decodes = counting_decodes (fun () -> receive_ok packetized ~lost) in
  let oracle, concealed, drifted = oracle_scores packetized encoded ~lost in
  check bool (what ^ " scores") true (same_scores received.Streaming.Transport.psnr oracle);
  check int (what ^ " concealed") concealed received.Streaming.Transport.concealed;
  check int (what ^ " drifted") drifted received.Streaming.Transport.drifted;
  check int (what ^ " decodes") (n + drifted) decodes;
  Array.fold_left (fun k p -> if p < infinity then k + 1 else k) 0 oracle

(* The transport reuses and rotates its planes across both chains; the
   scores must be those of the fresh-plane loop. *)
let test_transport_reused_planes_match_fresh () =
  List.iter
    (fun gop ->
      let packetized, encoded = packetize_clip ~gop (moving_clip ()) in
      let n = Array.length packetized.Streaming.Transport.payloads in
      for seed = 0 to 20 do
        let lost =
          Streaming.Fault.loss_mask (Streaming.Fault.bernoulli ~rate:0.3) ~seed ~n
        in
        lost.(0) <- false;
        ignore
          (check_against_oracle
             ~what:(Printf.sprintf "gop %d seed %d" gop seed)
             packetized encoded ~lost)
      done)
    [ 1; 3; 8 ]

(* Hand-picked loss masks over [n] frames at GOP [gop]: a lost
   I-frame, a lost first P after an I, a burst across a GOP boundary,
   consecutive I-frames lost, everything after the first frame lost,
   and no loss. *)
let structured_masks ~gop ~n =
  let mask frames =
    let lost = Array.make n false in
    List.iter (fun i -> if i > 0 && i < n then lost.(i) <- true) frames;
    lost
  in
  [
    ("lost I", mask [ gop ]);
    ("lost first P", mask [ gop + 1 ]);
    ("burst across boundary", mask [ gop - 1; gop; gop + 1 ]);
    ("two I lost", mask [ gop; 2 * gop ]);
    ("all but first", mask (List.init n Fun.id));
    ("lossless", mask []);
  ]

(* [Clip_gen] renders gray frames, whose chroma is flat, so a scorer
   that mixed up Cb and Cr would still pass on the paper workloads.
   These two clips give R, G and B their own content, each moving its
   own way: three drifting gradients, and three coloured shapes over a
   dark background. *)
let colour_clips ~width ~height ~frame_count =
  let clip name pixel =
    Video.Clip.make ~name ~width ~height ~fps:12. ~frame_count (fun i ->
        Image.Raster.init ~width ~height (fun ~x ~y -> pixel i ~x ~y))
  in
  let gradients i ~x ~y =
    Image.Pixel.v
      (((9 * x) + (7 * i)) land 255)
      (((13 * y) + (3 * x) + (5 * i)) land 255)
      ((200 + (6 * (x + y)) - (11 * i)) land 255)
  in
  let shapes i ~x ~y =
    let in_square = abs (x - (2 + i)) < 4 && abs (y - 5) < 4
    and in_disc =
      let dx = x - (width - 4 - (i / 2)) and dy = y - (3 + (i / 3)) in
      (dx * dx) + (dy * dy) < 12
    and in_bar = y = (height - 3 - (i / 4)) mod height in
    Image.Pixel.v
      (if in_square then 230 else 20 + x)
      (if in_disc then 210 else 30 + y)
      (if in_bar then 240 else 25 + ((x + i) mod 8))
  in
  [ clip "colour-gradients" gradients; clip "colour-shapes" shapes ]

let test_transport_scores_match_oracle () =
  let damaged = ref 0 in
  let paper =
    List.map
      (fun (profile : Video.Profile.t) ->
        let full = Video.Clip_gen.render ~width:24 ~height:16 ~fps:12. profile in
        Video.Clip.make ~name:full.Video.Clip.name ~width:24 ~height:16 ~fps:12.
          ~frame_count:(min 26 full.Video.Clip.frame_count)
          full.Video.Clip.render)
      Video.Workloads.all
  in
  List.iter
    (fun (clip : Video.Clip.t) ->
      let n = clip.Video.Clip.frame_count in
      List.iter
        (fun gop ->
          let packetized, encoded = packetize_clip ~gop clip in
          let random =
            List.init 15 (fun seed ->
                let rate = if seed mod 2 = 0 then 0.1 else 0.35 in
                let lost =
                  Streaming.Fault.loss_mask (Streaming.Fault.bernoulli ~rate) ~seed ~n
                in
                lost.(0) <- false;
                (Printf.sprintf "seed %d" seed, lost))
          in
          List.iter
            (fun (what, lost) ->
              damaged :=
                !damaged
                + check_against_oracle
                    ~what:
                      (Printf.sprintf "%s gop %d %s" clip.Video.Clip.name gop what)
                    packetized encoded ~lost)
            (structured_masks ~gop ~n @ random))
        [ 1; 3; 8; 12 ])
    (paper @ colour_clips ~width:24 ~height:16 ~frame_count:26);
  (* Not vacuous: most masks leave damaged frames to score. *)
  check bool "damaged frames scored" true (!damaged > 1000)

(* --- Planner --------------------------------------------------------------- *)

(* Quality levels only differentiate when scenes have bright tails the
   budget can clip. *)
let dark_profiled =
  lazy
    (let profile =
       {
         Video.Profile.name = "planner-test";
         seed = 23;
         scenes =
           [
             Video.Profile.scene ~seconds:2. ~noise_sigma:2.
               ~highlights:{ Video.Profile.count = 3; peak = 200; radius = 40; drift = 0. }
               (Video.Profile.Flat 40);
           ];
       }
     in
     Annotation.Annotator.profile (Video.Clip_gen.render ~width:32 ~height:24 ~fps:8. profile))

let test_planner_lossless_when_easy () =
  (* A huge battery or a tiny target: the least lossy level wins. *)
  let battery = Power.Battery.make ~capacity_mwh:100_000. in
  match
    Streaming.Planner.plan ~battery ~target_hours:1. ~device (Lazy.force dark_profiled)
  with
  | Ok p ->
    check bool "lossless suffices" true
      (p.Streaming.Planner.quality = Annotation.Quality_level.Lossless)
  | Error _ -> Alcotest.fail "plan should succeed"

let test_planner_escalates_quality () =
  (* Pick a target between the lossless and max-loss runtimes: the
     planner must escalate past lossless but still succeed. *)
  let profiled = Lazy.force dark_profiled in
  let battery = Power.Battery.ipaq_standard in
  let runtime quality =
    Power.Battery.runtime_hours battery
      ~average_power_mw:(Streaming.Planner.project ~device ~quality profiled)
  in
  let lossless_h = runtime Annotation.Quality_level.Lossless in
  let aggressive_h = runtime Annotation.Quality_level.Loss_20 in
  check bool "losing quality buys runtime" true (aggressive_h > lossless_h);
  let target = (lossless_h +. aggressive_h) /. 2. in
  match Streaming.Planner.plan ~battery ~target_hours:target ~device profiled with
  | Ok p ->
    check bool "escalated beyond lossless" true
      (Annotation.Quality_level.compare p.Streaming.Planner.quality
         Annotation.Quality_level.Lossless
       > 0);
    check bool "meets target" true
      (p.Streaming.Planner.projected_runtime_hours >= target)
  | Error _ -> Alcotest.fail "target between endpoints must be plannable"

let test_planner_reports_shortfall () =
  let battery = Power.Battery.make ~capacity_mwh:10. in
  match
    Streaming.Planner.plan ~battery ~target_hours:100. ~device
      (Lazy.force dark_profiled)
  with
  | Ok _ -> Alcotest.fail "impossible target must fail"
  | Error best ->
    check bool "best effort is the most aggressive level" true
      (best.Streaming.Planner.quality = Annotation.Quality_level.Loss_20)

let test_planner_validation () =
  Alcotest.check_raises "bad target"
    (Invalid_argument "Planner.plan: target must be positive") (fun () ->
      ignore
        (Streaming.Planner.plan ~battery:Power.Battery.ipaq_standard ~target_hours:0.
           ~device (Lazy.force dark_profiled)))

(* --- Ramp ----------------------------------------------------------------- *)

let test_ramp_limits_dimming () =
  let registers = [| 200; 200; 40; 40; 40; 40; 40 |] in
  let smoothed = Streaming.Ramp.slew_limit ~max_dim_step:50 registers in
  Alcotest.(check (array int))
    "ramped descent"
    [| 200; 200; 150; 100; 50; 40; 40 |]
    smoothed;
  check int "largest step bounded" 50 (Streaming.Ramp.largest_dim_step smoothed);
  check int "original step" 160 (Streaming.Ramp.largest_dim_step registers)

let test_ramp_brightening_immediate () =
  let registers = [| 40; 240; 240 |] in
  let smoothed = Streaming.Ramp.slew_limit ~max_dim_step:10 registers in
  Alcotest.(check (array int)) "jump up untouched" registers smoothed

let test_ramp_never_below_target () =
  let registers = [| 250; 10; 250; 10; 10 |] in
  let smoothed = Streaming.Ramp.slew_limit ~max_dim_step:30 registers in
  Array.iteri
    (fun i r -> check bool "pointwise at least target" true (r >= registers.(i)))
    smoothed

let test_ramp_cost_small () =
  (* Scene-length plateaus with moderate drops: the regime the
     annotator produces. *)
  let registers = Array.init 120 (fun i -> if i / 40 mod 2 = 0 then 220 else 150) in
  let cost = Streaming.Ramp.smoothing_cost ~device ~max_dim_step:8 registers in
  check bool "energy overhead below 5%" true
    (cost.Streaming.Ramp.extra_energy_fraction < 0.05);
  check bool "step reduced" true
    (cost.Streaming.Ramp.smoothed_largest_dim_step
     < cost.Streaming.Ramp.original_largest_dim_step)

let test_ramp_validation () =
  Alcotest.check_raises "bad step" (Invalid_argument "Ramp.slew_limit: step must be positive")
    (fun () -> ignore (Streaming.Ramp.slew_limit ~max_dim_step:0 [| 1 |]))

(* --- Radio ---------------------------------------------------------------- *)

let radio_link = Streaming.Netsim.wlan_80211b

(* Streams with small P frames and a periodic large I frame. *)
let spiky_bytes ~frames ~gop ~quiet ~spike =
  Array.init frames (fun i -> if i mod gop = 0 then spike else quiet)

let test_radio_gop_bytes () =
  let bytes = Streaming.Radio.gop_bytes ~gop:3 [| 1; 2; 3; 4; 5; 6; 7 |] in
  Alcotest.(check (array int)) "grouped" [| 6; 15; 7 |] bytes;
  Alcotest.check_raises "bad gop" (Invalid_argument "Radio.gop_bytes: gop must be positive")
    (fun () -> ignore (Streaming.Radio.gop_bytes ~gop:0 [| 1 |]))

let test_radio_always_on_baseline () =
  let frame_bytes = spiky_bytes ~frames:48 ~gop:12 ~quiet:400 ~spike:4000 in
  let r =
    Streaming.Radio.run ~link:radio_link ~fps:12. ~gop:12 ~frame_bytes
      Streaming.Radio.Always_on
  in
  check (Alcotest.float 1e-9) "no savings" 0. r.Streaming.Radio.savings;
  check int "never late" 0 r.Streaming.Radio.late_frames;
  check (Alcotest.float 1e-9) "never dozes" 0. r.Streaming.Radio.sleep_fraction

let test_radio_annotated_sleeps_without_lateness () =
  let frame_bytes = spiky_bytes ~frames:48 ~gop:12 ~quiet:400 ~spike:4000 in
  let r =
    Streaming.Radio.run ~link:radio_link ~fps:12. ~gop:12 ~frame_bytes
      Streaming.Radio.Annotated_bursts
  in
  check int "never late" 0 r.Streaming.Radio.late_frames;
  check bool "sleeps most of the time" true (r.Streaming.Radio.sleep_fraction > 0.8);
  check bool "large savings" true (r.Streaming.Radio.savings > 0.5)

let test_radio_history_late_frames () =
  (* Burst sizes alternate hugely between GOPs, so the previous-burst
     window always under-provisions the big ones. *)
  let frame_bytes =
    Array.init 96 (fun i -> if i / 12 mod 2 = 0 then 200 else 5000)
  in
  let r =
    Streaming.Radio.run ~link:radio_link ~fps:12. ~gop:12 ~frame_bytes
      (Streaming.Radio.History_bursts { margin = 1.1 })
  in
  check bool "late frames at big bursts" true (r.Streaming.Radio.late_frames > 0)

let test_radio_energy_ordering () =
  let frame_bytes = spiky_bytes ~frames:96 ~gop:12 ~quiet:400 ~spike:4000 in
  let run p = Streaming.Radio.run ~link:radio_link ~fps:12. ~gop:12 ~frame_bytes p in
  let on = run Streaming.Radio.Always_on in
  let annotated = run Streaming.Radio.Annotated_bursts in
  let history = run (Streaming.Radio.History_bursts { margin = 1.2 }) in
  check bool "annotated cheapest" true
    (annotated.Streaming.Radio.radio_energy_mj
     <= history.Streaming.Radio.radio_energy_mj +. 1e-9);
  check bool "history cheaper than always-on" true
    (history.Streaming.Radio.radio_energy_mj < on.Streaming.Radio.radio_energy_mj)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"lower registers never reduce savings"
        QCheck2.Gen.(pair (1 -- 50) (0 -- 200))
        (fun (frames, r) ->
          let report reg =
            Streaming.Playback.run_with_registers ~device
              ~quality:Annotation.Quality_level.Lossless ~clip_name:"c" ~fps:8.
              ~annotation_bytes:0
              (Array.make frames reg)
          in
          (report r).Streaming.Playback.backlight_savings
          >= (report (r + 55)).Streaming.Playback.backlight_savings -. 1e-9);
      QCheck2.Test.make ~name:"wire bytes monotone in payload"
        QCheck2.Gen.(pair (0 -- 100_000) (0 -- 100_000))
        (fun (a, b) ->
          let link = Streaming.Netsim.wlan_80211b in
          let lo = min a b and hi = max a b in
          Streaming.Netsim.wire_bytes link lo <= Streaming.Netsim.wire_bytes link hi);
    ]

(* --- Session tick machine ------------------------------------------------- *)

(* [Session.run] is reimplemented on the poll-able machine; these pin
   the equivalence the refactor promised — stepping by hand produces
   the same printed report and the same decision journal, byte for
   byte, as the one-shot entry point. *)

let with_session_journal f =
  Obs.enable ();
  let j = Obs.Journal.create () in
  Obs.Journal.install j;
  let r = Fun.protect ~finally:Obs.Journal.uninstall f in
  (r, Obs.Journal.to_string j, Obs.Journal.events j)

let test_session_machine_equals_run () =
  let clip = moving_clip () in
  let config =
    {
      (Streaming.Session.default_config ~device) with
      Streaming.Session.fault = Some (Streaming.Fault.bernoulli ~rate:0.03);
    }
  in
  let run_report, run_journal, _ =
    with_session_journal (fun () -> Streaming.Session.run config clip)
  in
  let machine_report, machine_journal, _ =
    with_session_journal (fun () ->
        let m = Streaming.Session.create config clip in
        let steps = ref 0 in
        let rec drive () =
          incr steps;
          match Streaming.Session.step m with `Running -> drive () | `Done -> ()
        in
        drive ();
        check bool "a tick per frame plus setup and finalize" true
          (!steps >= Streaming.Session.frames m + 2);
        match Streaming.Session.result m with
        | Some r -> r
        | None -> Alcotest.fail "machine reported `Done without a result")
  in
  (match (run_report, machine_report) with
  | Ok a, Ok b ->
    check Alcotest.string "byte-identical printed reports"
      (Format.asprintf "%a" Streaming.Session.pp_report a)
      (Format.asprintf "%a" Streaming.Session.pp_report b)
  | Error e, _ | _, Error e -> Alcotest.fail e);
  check Alcotest.string "byte-identical journals" run_journal machine_journal

let test_session_machine_progress_order () =
  let clip = two_scene_clip () in
  let m = Streaming.Session.create (Streaming.Session.default_config ~device) clip in
  check bool "starts in setup" true
    (match Streaming.Session.progress m with `Setup -> true | _ -> false);
  let saw_frame = ref false and saw_finalize = ref false in
  let rec drive () =
    (match Streaming.Session.progress m with
    | `Frame _ -> saw_frame := true
    | `Finalize -> saw_finalize := true
    | `Setup | `Complete -> ());
    match Streaming.Session.step m with `Running -> drive () | `Done -> ()
  in
  drive ();
  check bool "visited the frame loop" true !saw_frame;
  check bool "visited finalize" true !saw_finalize;
  check bool "complete at the end" true
    (match Streaming.Session.progress m with `Complete -> true | _ -> false);
  check bool "result available" true (Streaming.Session.result m <> None)

(* The clamp regressions: hostile numeric inputs (fps 0, fps nan, a
   negative stage deadline) must journal as clamped non-negative
   integers instead of crashing int_of_float on nan/overflow. *)

let session_start_fps_milli clip =
  let config = Streaming.Session.default_config ~device in
  (* Downstream stages may legitimately reject a degenerate fps
     (Track.make raises on 0.); the clamp under test is at the
     journaling site, which records Session_start first. *)
  let _, _, events =
    with_session_journal (fun () ->
        try ignore (Streaming.Session.run config clip)
        with Invalid_argument _ -> ())
  in
  match
    List.find_map
      (fun (e : Obs.Journal.event) ->
        match e.Obs.Journal.kind with
        | Obs.Journal.Session_start { fps_milli; _ } -> Some fps_milli
        | _ -> None)
      events
  with
  | Some v -> v
  | None -> Alcotest.fail "no Session_start event journaled"

let test_session_fps_zero_clamps () =
  let clip = { (two_scene_clip ()) with Video.Clip.fps = 0. } in
  check int "fps 0 journals as 0" 0 (session_start_fps_milli clip)

let test_session_fps_nan_clamps () =
  let clip = { (two_scene_clip ()) with Video.Clip.fps = Float.nan } in
  check int "fps nan journals as 0" 0 (session_start_fps_milli clip)

let test_session_negative_deadline_clamps () =
  let clip = two_scene_clip () in
  let profile =
    {
      Resilience.Profile.empty with
      Resilience.Profile.stage_deadline_s = Some (-0.01);
    }
  in
  let config =
    {
      (Streaming.Session.default_config ~device) with
      Streaming.Session.fault = Some (Streaming.Fault.bernoulli ~rate:0.3);
      resilience = Some profile;
    }
  in
  let report, _, events =
    with_session_journal (fun () -> Streaming.Session.run config clip)
  in
  (match report with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("session aborted: " ^ e));
  match
    List.find_map
      (fun (e : Obs.Journal.event) ->
        match e.Obs.Journal.kind with
        | Obs.Journal.Watchdog_trip { budget_us; over_us; _ } ->
          Some (budget_us, over_us)
        | _ -> None)
      events
  with
  | None ->
    Alcotest.fail "negative deadline never tripped the watchdog"
  | Some (budget_us, over_us) ->
    check int "negative budget clamps to 0" 0 budget_us;
    check bool "overrun is non-negative" true (over_us >= 0)

(* --- Ramp zero-denominator cost ------------------------------------------- *)

let test_ramp_cost_all_off_zero_floor () =
  (* A backlight that truly draws nothing when fully off: the old
     fraction-only cost divided by zero here. *)
  let zero_floor =
    { device with Display.Device.backlight_power_floor_mw = 0. }
  in
  let cost =
    Streaming.Ramp.smoothing_cost ~device:zero_floor ~max_dim_step:8
      (Array.make 48 0)
  in
  check (Alcotest.float 0.) "fraction is exactly zero, not nan" 0.
    cost.Streaming.Ramp.extra_energy_fraction;
  check (Alcotest.float 0.) "no absolute extra energy" 0.
    cost.Streaming.Ramp.extra_energy_mj

let test_ramp_cost_absolute_energy () =
  let registers = Array.init 96 (fun i -> if i < 48 then 230 else 40) in
  let cost = Streaming.Ramp.smoothing_cost ~device ~max_dim_step:4 registers in
  check bool "smoothing costs absolute energy" true
    (Float.is_finite cost.Streaming.Ramp.extra_energy_mj
    && cost.Streaming.Ramp.extra_energy_mj > 0.);
  check bool "fraction finite alongside" true
    (Float.is_finite cost.Streaming.Ramp.extra_energy_fraction
    && cost.Streaming.Ramp.extra_energy_fraction > 0.)

let test_ramp_cost_fps_validation () =
  Alcotest.check_raises "nan fps"
    (Invalid_argument "Ramp.smoothing_cost: fps must be positive") (fun () ->
      ignore
        (Streaming.Ramp.smoothing_cost ~fps:Float.nan ~device ~max_dim_step:8
           (Array.make 8 100)));
  Alcotest.check_raises "zero fps"
    (Invalid_argument "Ramp.smoothing_cost: fps must be positive") (fun () ->
      ignore
        (Streaming.Ramp.smoothing_cost ~fps:0. ~device ~max_dim_step:8
           (Array.make 8 100)))

(* --- Cold prepare: goldens and single pass ------------------------------ *)

(* The first 8 frames of each paper workload at 96x72. *)
let golden_prepare_clips () =
  List.map
    (fun profile ->
      let full = Video.Clip_gen.render ~width:96 ~height:72 ~fps:12. profile in
      Video.Clip.make ~name:full.Video.Clip.name ~width:96 ~height:72 ~fps:12.
        ~frame_count:8 full.Video.Clip.render)
    Video.Workloads.all

(* MD5s of [prepare_input]'s annotation payload, FEC packets and
   encoded stream over the ten workloads (GOP 12). Taken before the
   cold prepare was made single-pass; any change to a byte the server
   ships moves them. *)
let golden_prepare_digests =
  [
    ("annotation payload", "28c57ca276363d960569b4644fd9225e");
    ("fec packets", "baf61792071cf2b0f51c2783d7800b27");
    ("encoded data", "3de762c0954e00e9703284435a604eb3");
  ]

let test_golden_prepare () =
  let config = { (Streaming.Session.default_config ~device) with gop = 12 } in
  let payload = Buffer.create 4096
  and fec = Buffer.create 4096
  and data = Buffer.create (1 lsl 16) in
  let add buf s =
    Buffer.add_string buf (Printf.sprintf "%d:" (String.length s));
    Buffer.add_string buf s
  in
  List.iter
    (fun clip ->
      let p = Streaming.Session.prepare_input config clip in
      add payload p.Streaming.Session.annotation_payload;
      let f = p.Streaming.Session.protected in
      Buffer.add_string fec
        (Printf.sprintf "%d/%d/%d/%d;" f.Streaming.Fec.data_packets
           f.Streaming.Fec.group_size f.Streaming.Fec.packet_size
           f.Streaming.Fec.payload_length);
      Array.iter (add fec) f.Streaming.Fec.packets;
      add data p.Streaming.Session.encoded.Codec.Encoder.data)
    (golden_prepare_clips ());
  let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  List.iter2
    (fun (what, expected) buf -> check Alcotest.string what expected (digest buf))
    golden_prepare_digests [ payload; fec; data ]

(* A clip that logs every frame index it renders. *)
let counting_clip () =
  let full = two_scene_clip () in
  let calls = ref [] in
  let clip =
    Video.Clip.make ~name:full.Video.Clip.name ~width:full.Video.Clip.width
      ~height:full.Video.Clip.height ~fps:full.Video.Clip.fps
      ~frame_count:full.Video.Clip.frame_count (fun i ->
        calls := i :: !calls;
        full.Video.Clip.render i)
  in
  (clip, fun () -> List.rev !calls)

let test_prepare_single_pass () =
  let config = Streaming.Session.default_config ~device in
  let clip, rendered = counting_clip () in
  let once = List.init clip.Video.Clip.frame_count Fun.id in
  let prep = Streaming.Session.prepare_input config clip in
  check (Alcotest.list int) "prepare_input renders each frame once, in order" once
    (rendered ());
  (* The track shipped is the one a separate profiling pass gives. *)
  let profiled = Annotation.Annotator.profile clip in
  let track =
    Streaming.Negotiation.annotate
      {
        Streaming.Negotiation.device;
        quality = config.Streaming.Session.quality;
        mapping = config.Streaming.Session.mapping;
      }
      profiled
  in
  check Alcotest.string "annotation payload equals a separate profile's"
    (Annotation.Encoding.encode track)
    prep.Streaming.Session.annotation_payload;
  (* The tap [prepare] profiles through, fed by the encoder, builds
     exactly [Annotator.profile]'s record. *)
  let tapped, tap_profile = Annotation.Annotator.histogram_tap clip in
  Alcotest.check_raises "no profile before every frame is rendered"
    (Invalid_argument "Annotator.histogram_tap: a frame was never rendered")
    (fun () -> ignore (tap_profile ()));
  ignore (Codec.Encoder.encode_clip tapped);
  check bool "tap profile = Annotator.profile" true (tap_profile () = profiled);
  let cold, rendered = counting_clip () in
  (match Streaming.Session.run config cold with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check (Alcotest.list int) "a cold run renders each frame once, in order" once
    (rendered ())

(* The decoder runs once per frame of a session and never in prepare:
   [prepare_input] decodes nothing, a cold lossless session decodes
   each frame once (it decoded each twice while prepare decoded the
   PSNR reference), and a lossy one decodes each frame once plus each
   drifted frame again on the clean chain. *)
let test_decode_once () =
  let clip = moving_clip () in
  let n = clip.Video.Clip.frame_count in
  let config = Streaming.Session.default_config ~device in
  let prep, decodes = counting_decodes (fun () -> Streaming.Session.prepare_input config clip) in
  check int "prepare_input decodes nothing" 0 decodes;
  check bool "prepare_input leaves clean unset" true
    (Option.is_none prep.Streaming.Session.clean);
  let run config =
    match Streaming.Session.run config clip with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let _, decodes = counting_decodes (fun () -> run config) in
  check int "a cold lossless session decodes each frame once" n decodes;
  let fault = Streaming.Fault.bernoulli ~rate:0.15 in
  let config = { config with Streaming.Session.fault = Some fault; seed = 3 } in
  let report, decodes = counting_decodes (fun () -> run config) in
  (* The loss mask the session draws (seed + 1, first frame delivered). *)
  let lost = Streaming.Fault.loss_mask fault ~seed:4 ~n in
  lost.(0) <- false;
  let packetized = fst (packetize_clip ~gop:config.Streaming.Session.gop clip) in
  let received = receive_ok packetized ~lost in
  check int "the session conceals what the mask loses"
    received.Streaming.Transport.concealed report.Streaming.Session.concealed_frames;
  check bool "the loss drifts" true (received.Streaming.Transport.drifted > 0);
  check int "a lossy session decodes frame count + drifted"
    (n + received.Streaming.Transport.drifted)
    decodes

let () =
  Alcotest.run "streaming"
    [
      ( "netsim",
        [
          Alcotest.test_case "packet count" `Quick test_netsim_packet_count;
          Alcotest.test_case "wire bytes" `Quick test_netsim_wire_bytes;
          Alcotest.test_case "annotation overhead" `Quick
            test_netsim_annotation_overhead_small;
          Alcotest.test_case "validation" `Quick test_netsim_validation;
        ] );
      ( "negotiation",
        [
          Alcotest.test_case "accepts grid quality" `Quick
            test_negotiation_accepts_grid_quality;
          Alcotest.test_case "snaps custom quality" `Quick
            test_negotiation_snaps_custom_quality;
          Alcotest.test_case "client-side mapping" `Quick
            test_negotiation_client_side_mapping;
        ] );
      ( "server",
        [
          Alcotest.test_case "catalog" `Quick test_server_catalog;
          Alcotest.test_case "prepare" `Quick test_server_prepare;
          Alcotest.test_case "client-side mapping" `Quick test_server_client_side_mapping;
          Alcotest.test_case "profile cached" `Quick test_server_profile_cached;
          Alcotest.test_case "cache hit/miss" `Quick test_server_cache_hit_miss;
          Alcotest.test_case "scene params bypass cache" `Quick
            test_server_scene_params_bypass_cache;
          Alcotest.test_case "prepare_many stress" `Quick
            test_server_prepare_many_stress;
          Alcotest.test_case "prepare_many bulkhead stress" `Quick
            test_server_prepare_many_bulkhead_stress;
          Alcotest.test_case "encode video" `Quick test_server_encode_video;
        ] );
      ( "playback",
        [
          Alcotest.test_case "full backlight baseline" `Quick
            test_playback_full_backlight_baseline;
          Alcotest.test_case "dimming saves" `Quick test_playback_dimmed_saves;
          Alcotest.test_case "total tracks share" `Quick
            test_playback_total_tracks_backlight_share;
          Alcotest.test_case "run on clip" `Quick test_playback_run_on_clip;
          Alcotest.test_case "instantaneous savings" `Quick
            test_playback_instantaneous_savings;
          Alcotest.test_case "quality evaluation" `Quick test_playback_quality_evaluation;
          Alcotest.test_case "empty rejected" `Quick test_playback_empty_rejected;
        ] );
      ( "cold prepare",
        [
          Alcotest.test_case "golden digests" `Quick test_golden_prepare;
          Alcotest.test_case "single pass" `Quick test_prepare_single_pass;
          Alcotest.test_case "decode once" `Quick test_decode_once;
        ] );
      ( "session",
        [
          Alcotest.test_case "clean run" `Quick test_session_clean_run;
          Alcotest.test_case "lossy run" `Quick test_session_lossy_run;
          Alcotest.test_case "forced first frame counted" `Quick
            test_session_forced_first_frame_counted;
          Alcotest.test_case "annotation loss fallback" `Quick
            test_session_annotation_loss_falls_back;
          Alcotest.test_case "client mapping equivalent" `Quick
            test_session_client_mapping_equivalent;
          Alcotest.test_case "ramp option" `Quick test_session_ramp_option;
        ] );
      ( "session machine",
        [
          Alcotest.test_case "run equals stepped machine" `Quick
            test_session_machine_equals_run;
          Alcotest.test_case "progress order" `Quick
            test_session_machine_progress_order;
          Alcotest.test_case "fps 0 clamps in journal" `Quick
            test_session_fps_zero_clamps;
          Alcotest.test_case "fps nan clamps in journal" `Quick
            test_session_fps_nan_clamps;
          Alcotest.test_case "negative stage deadline clamps" `Quick
            test_session_negative_deadline_clamps;
        ] );
      ( "fec",
        [
          Alcotest.test_case "no loss roundtrip" `Quick test_fec_no_loss_roundtrip;
          Alcotest.test_case "single loss per group" `Quick
            test_fec_single_loss_per_group_recovers;
          Alcotest.test_case "short tail packet" `Quick test_fec_recovers_short_tail_packet;
          Alcotest.test_case "double loss fails" `Quick test_fec_double_loss_fails;
          Alcotest.test_case "parity loss harmless" `Quick test_fec_parity_loss_harmless;
          Alcotest.test_case "overhead bounded" `Quick test_fec_overhead_bounded;
          QCheck_alcotest.to_alcotest prop_fec_any_single_loss_recovers;
        ] );
      ( "transport",
        [
          Alcotest.test_case "lossless equals plain decode" `Quick
            test_transport_lossless_matches_plain_decode;
          Alcotest.test_case "recovery at I frame" `Quick
            test_transport_concealment_recovers_at_i_frame;
          Alcotest.test_case "first-frame loss rejected" `Quick
            test_transport_first_frame_loss_fails;
          Alcotest.test_case "deterministic loss" `Quick
            test_transport_bernoulli_deterministic;
          Alcotest.test_case "random loss never crashes" `Quick
            test_transport_random_loss_never_crashes;
          Alcotest.test_case "reused planes match fresh" `Quick
            test_transport_reused_planes_match_fresh;
          Alcotest.test_case "scores match the old path" `Quick
            test_transport_scores_match_oracle;
        ] );
      ( "planner",
        [
          Alcotest.test_case "lossless when easy" `Quick test_planner_lossless_when_easy;
          Alcotest.test_case "escalates quality" `Quick test_planner_escalates_quality;
          Alcotest.test_case "reports shortfall" `Quick test_planner_reports_shortfall;
          Alcotest.test_case "validation" `Quick test_planner_validation;
        ] );
      ( "ramp",
        [
          Alcotest.test_case "limits dimming" `Quick test_ramp_limits_dimming;
          Alcotest.test_case "brightening immediate" `Quick test_ramp_brightening_immediate;
          Alcotest.test_case "never below target" `Quick test_ramp_never_below_target;
          Alcotest.test_case "cost small" `Quick test_ramp_cost_small;
          Alcotest.test_case "validation" `Quick test_ramp_validation;
          Alcotest.test_case "all-off zero-floor cost" `Quick
            test_ramp_cost_all_off_zero_floor;
          Alcotest.test_case "absolute extra energy" `Quick
            test_ramp_cost_absolute_energy;
          Alcotest.test_case "fps validation" `Quick
            test_ramp_cost_fps_validation;
        ] );
      ( "radio",
        [
          Alcotest.test_case "gop grouping" `Quick test_radio_gop_bytes;
          Alcotest.test_case "always-on baseline" `Quick test_radio_always_on_baseline;
          Alcotest.test_case "annotated sleeps" `Quick
            test_radio_annotated_sleeps_without_lateness;
          Alcotest.test_case "history lateness" `Quick test_radio_history_late_frames;
          Alcotest.test_case "energy ordering" `Quick test_radio_energy_ordering;
        ] );
      ( "dvfs_playback",
        [
          Alcotest.test_case "annotated meets deadlines" `Quick
            test_dvfs_annotated_meets_deadlines;
          Alcotest.test_case "history misses spikes" `Quick test_dvfs_history_misses_spikes;
          Alcotest.test_case "full-speed baseline" `Quick test_dvfs_full_speed_baseline;
          Alcotest.test_case "annotated beats history" `Quick
            test_dvfs_annotated_beats_history_energy;
          Alcotest.test_case "decode cycle estimates" `Quick
            test_dvfs_decode_cycles_reflect_frame_sizes;
          Alcotest.test_case "annotation bytes" `Quick test_dvfs_annotation_bytes_small;
          Alcotest.test_case "validation" `Quick test_dvfs_validation;
        ] );
      ("properties", qtests);
    ]

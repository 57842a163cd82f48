(* playback: simulate annotated playback on a device and report the
   power savings and quality verdicts — the client side of the paper's
   measurements. *)

open Cmdliner

let camera_arg =
  Arg.(
    value & flag
    & info [ "camera" ]
        ~doc:"Also validate quality with camera snapshots on sampled frames (Fig 2).")

let dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump" ] ~docv:"PREFIX"
        ~doc:
          "Write the Fig-4 artefact pair for the dimmest contentful scene: \
           $(docv)-reference.ppm (original frame photographed at full \
           backlight) and $(docv)-compensated.ppm (compensated frame at the \
           annotated register).")

let ramp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "ramp" ] ~docv:"STEP"
        ~doc:
          "Slew-limit backlight dimming to $(docv) register counts per frame \
           (brightening stays immediate).")

let dump_snapshots ~device ~clip ~track prefix =
  (* The dimmest scene that still shows content, as in the bench's
     Fig 4 selection. *)
  let frame_index =
    let best = ref 0 and best_reg = ref 256 in
    Array.iter
      (fun (e : Annotation.Track.entry) ->
        if e.Annotation.Track.register < !best_reg && e.Annotation.Track.effective_max >= 80
        then begin
          best_reg := e.Annotation.Track.register;
          best := e.Annotation.Track.first_frame + (e.Annotation.Track.frame_count / 2)
        end)
      track.Annotation.Track.entries;
    !best
  in
  let original = clip.Video.Clip.render frame_index in
  let entry = Annotation.Track.lookup track frame_index in
  let compensated = Annotation.Compensate.frame track frame_index original in
  let rig = Camera.Snapshot.default_rig device in
  let reference_snap =
    Camera.Snapshot.capture rig device ~backlight_register:255 original
  in
  let compensated_snap =
    Camera.Snapshot.capture rig device
      ~backlight_register:entry.Annotation.Track.register compensated
  in
  let ref_path = prefix ^ "-reference.ppm" in
  let cmp_path = prefix ^ "-compensated.ppm" in
  Image.Ppm.write ~path:ref_path reference_snap;
  Image.Ppm.write ~path:cmp_path compensated_snap;
  Printf.printf "\nwrote %s and %s (frame %d, register %d)\n" ref_path cmp_path
    frame_index entry.Annotation.Track.register

(* Chaos path: run the full end-to-end session (FEC, NACK loop,
   per-scene degradation) under the requested fault model instead of
   the clean playback report. A resilience profile adds the control
   plane: retry schedule, breaker, watchdog and the degradation
   ladder, with a server-prepared stale track backing the stale rung. *)
let run_faulty ~device ~quality ~ramp ~fault ~resilience clip =
  let resilience, stale_track =
    Common.session_resilience ~device clip resilience
  in
  let config =
    {
      (Streaming.Session.default_config ~device) with
      Streaming.Session.quality;
      ramp_step = ramp;
      fault = Some fault;
      resilience;
      stale_track;
    }
  in
  Format.printf "fault model: %a@.@." Streaming.Fault.pp fault;
  (match resilience with
  | Some p -> Format.printf "resilience: %a@.@." Resilience.Profile.pp p
  | None -> ());
  match Streaming.Session.run config clip with
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    1
  | Ok report ->
    Format.printf "%a@." Streaming.Session.pp_report report;
    0

let run clip_name device_name device_file quality with_camera dump ramp width height fps loss_model loss burst fault_profile resilience_file obs trace_out energy_profile journal monitor slo metrics_out =
  Common.with_instrumentation ~default_quality:(Annotation.Quality_level.allowed_loss quality)
    ~energy_profile ~journal ~obs ~trace_out ~monitor ~slo ~metrics_out
  @@ fun () ->
  let clip = Common.or_die (Common.resolve_clip clip_name ~width ~height ~fps) in
  let device =
    Common.or_die (Common.resolve_device_with_file ~file:device_file device_name)
  in
  let resilience = Common.resolve_resilience resilience_file in
  match Common.resolve_fault ~loss_model ~loss ~burst ~fault_profile with
  | Some fault -> run_faulty ~device ~quality ~ramp ~fault ~resilience clip
  | None ->
  let profiled = Annotation.Annotator.profile clip in
  (* One annotation pass serves the report, the snapshot dump and the
     camera sweep — annotating again inside [run_profiled] would both
     waste the work and journal a second phase-1 decision pass. *)
  let track = Annotation.Annotator.annotate_profiled ~device ~quality profiled in
  let registers =
    match ramp with
    | None -> Annotation.Track.register_track track
    | Some max_dim_step ->
      Streaming.Ramp.slew_limit ~max_dim_step (Annotation.Track.register_track track)
  in
  let report =
    Streaming.Playback.run_with_registers ~device ~quality
      ~clip_name:clip.Video.Clip.name ~fps
      ~annotation_bytes:(Annotation.Encoding.encoded_size track)
      registers
  in
  Format.printf "%a@." Streaming.Playback.pp_report report;
  Printf.printf "\nbacklight energy : %8.1f mJ (baseline %8.1f mJ) -> %.1f%% saved\n"
    report.Streaming.Playback.backlight_energy_mj
    report.Streaming.Playback.backlight_baseline_mj
    (100. *. report.Streaming.Playback.backlight_savings);
  Printf.printf "device energy    : %8.1f mJ (baseline %8.1f mJ) -> %.1f%% saved\n"
    report.Streaming.Playback.total_energy_mj
    report.Streaming.Playback.total_baseline_mj
    (100. *. report.Streaming.Playback.total_savings);
  let baseline_power =
    report.Streaming.Playback.total_baseline_mj /. report.Streaming.Playback.duration_s
  in
  let optimised_power =
    report.Streaming.Playback.total_energy_mj /. report.Streaming.Playback.duration_s
  in
  Printf.printf "battery runtime  : %+.1f%% playback time on a standard pack\n"
    (100.
     *. Power.Battery.extension_ratio ~baseline_power_mw:baseline_power
          ~optimized_power_mw:optimised_power);
  (match dump with
  | None -> ()
  | Some prefix -> dump_snapshots ~device ~clip ~track prefix);
  if with_camera then begin
    Printf.printf "\ncamera validation (every 24th frame):\n";
    let rig = Camera.Snapshot.default_rig device in
    List.iter
      (fun (i, verdict) ->
        Format.printf "  frame %4d: %a — %s@." i Camera.Quality.pp_verdict verdict
          (if Camera.Quality.acceptable verdict then "ok" else "DEGRADED"))
      (Streaming.Playback.evaluate_quality ~rig ~device ~clip ~track ~sample_every:24)
  end;
  0

let cmd =
  let doc = "simulate annotated playback and report power savings" in
  Cmd.v
    (Cmd.info "playback" ~doc)
    Term.(
      const run $ Common.clip_arg $ Common.device_arg $ Common.device_file_arg
      $ Common.quality_arg $ camera_arg $ dump_arg $ ramp_arg $ Common.width_arg
      $ Common.height_arg $ Common.fps_arg $ Common.loss_model_arg
      $ Common.loss_arg $ Common.burst_arg $ Common.fault_profile_arg
      $ Common.resilience_arg $ Common.obs_arg
      $ Common.trace_out_arg $ Common.energy_profile_arg $ Common.journal_arg
      $ Common.monitor_arg $ Common.slo_arg $ Common.metrics_out_arg)

let () = exit (Cmd.eval' cmd)

(* plan: pick the least lossy quality level that reaches a target
   battery runtime for a given clip and device. *)

open Cmdliner

let target_arg =
  Arg.(
    value & opt float 4.
    & info [ "t"; "target-hours" ] ~docv:"HOURS" ~doc:"Target playback runtime.")

let capacity_arg =
  Arg.(
    value & opt float 4600.
    & info [ "capacity" ] ~docv:"MWH" ~doc:"Battery capacity in milliwatt-hours.")

(* Re-validate a chosen plan under a hostile channel: does the quality
   level's saving survive burst loss and corruption on the annotation
   side channel, and how many scenes degrade? *)
let validate_under_fault ~device ~quality ~fault ~resilience clip =
  let resilience, stale_track =
    Common.session_resilience ~device clip resilience
  in
  let config =
    {
      (Streaming.Session.default_config ~device) with
      Streaming.Session.quality;
      fault = Some fault;
      resilience;
      stale_track;
    }
  in
  Format.printf "@.validation under fault model %a:@." Streaming.Fault.pp fault;
  (match resilience with
  | Some p -> Format.printf "resilience: %a@." Resilience.Profile.pp p
  | None -> ());
  match Streaming.Session.run config clip with
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    1
  | Ok report ->
    Format.printf "%a@." Streaming.Session.pp_report report;
    0

let run clip_name device_name device_file target_hours capacity_mwh width height fps loss_model loss burst fault_profile resilience_file obs trace_out energy_profile journal monitor slo metrics_out =
  Common.with_instrumentation ~energy_profile ~journal ~obs ~trace_out
    ~monitor ~slo ~metrics_out
  @@ fun () ->
  let clip = Common.or_die (Common.resolve_clip clip_name ~width ~height ~fps) in
  let device =
    Common.or_die (Common.resolve_device_with_file ~file:device_file device_name)
  in
  let fault = Common.resolve_fault ~loss_model ~loss ~burst ~fault_profile in
  let resilience = Common.resolve_resilience resilience_file in
  let battery = Power.Battery.make ~capacity_mwh in
  let profiled = Annotation.Annotator.profile clip in
  Printf.printf "clip %s on %s, battery %.0f mWh, target %.1f h\n\n" clip_name
    device_name capacity_mwh target_hours;
  (* Show the whole menu, then the decision. *)
  List.iter
    (fun quality ->
      let power = Streaming.Planner.project ~device ~quality profiled in
      Printf.printf "  %-4s -> %6.0f mW, %5.1f h\n"
        (Annotation.Quality_level.label quality)
        power
        (Power.Battery.runtime_hours battery ~average_power_mw:power))
    Annotation.Quality_level.standard_grid;
  print_newline ();
  (* Return the exit code instead of calling [exit] here, so the obs
     summary in [with_obs]'s cleanup still runs on the failure path. *)
  match Streaming.Planner.plan ~battery ~target_hours ~device profiled with
  | Ok plan ->
    Format.printf "selected: %a@." Streaming.Planner.pp_plan plan;
    (match fault with
    | None -> 0
    | Some fault ->
      validate_under_fault ~device ~quality:plan.Streaming.Planner.quality
        ~fault ~resilience clip)
  | Error best ->
    Format.printf "target unreachable; best effort: %a@." Streaming.Planner.pp_plan best;
    2

let cmd =
  let doc = "select the quality level meeting a battery-runtime target" in
  Cmd.v
    (Cmd.info "plan" ~doc)
    Term.(
      const run $ Common.clip_arg $ Common.device_arg $ Common.device_file_arg
      $ target_arg $ capacity_arg $ Common.width_arg $ Common.height_arg
      $ Common.fps_arg $ Common.loss_model_arg $ Common.loss_arg
      $ Common.burst_arg $ Common.fault_profile_arg $ Common.resilience_arg
      $ Common.obs_arg $ Common.trace_out_arg $ Common.energy_profile_arg
      $ Common.journal_arg $ Common.monitor_arg $ Common.slo_arg
      $ Common.metrics_out_arg)

let () = exit (Cmd.eval' cmd)

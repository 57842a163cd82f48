(* characterize: run the gray-patch display characterisation (§5)
   through the camera model and report the recovered transfer curve. *)

open Cmdliner

let steps_arg =
  Arg.(value & opt int 18 & info [ "steps" ] ~docv:"N" ~doc:"Sweep sample count.")

let run device_name device_file steps resilience_file obs trace_out energy_profile journal monitor slo metrics_out =
  Common.with_instrumentation ~energy_profile ~journal ~obs ~trace_out
    ~monitor ~slo ~metrics_out
  @@ fun () ->
  let device =
    Common.or_die (Common.resolve_device_with_file ~file:device_file device_name)
  in
  (* Characterisation has no streaming stage; the profile is loaded so
     a sweep can pass every tool the same flags (a malformed one fails
     fast here too), then announced and otherwise unused. *)
  (match Common.resolve_resilience resilience_file with
  | Some p ->
    Format.printf "resilience: %a (no streaming stage; profile inert)@."
      Resilience.Profile.pp p
  | None -> ());
  let rig = Camera.Snapshot.default_rig device in
  let measure = Camera.Snapshot.measure_patch rig device in
  Printf.printf "device: %s\n\n" device.Display.Device.name;
  Printf.printf "backlight sweep at white=255 (Fig 7):\n";
  let sweep = Display.Characterize.backlight_sweep ~steps measure in
  Array.iteri
    (fun i level ->
      Printf.printf "  backlight %3d -> brightness %5.1f\n" level
        sweep.Display.Characterize.readings.(i))
    sweep.Display.Characterize.levels;
  Printf.printf "\nwhite sweeps (Fig 8):\n";
  let full = Display.Characterize.white_sweep ~steps ~backlight:255 measure in
  let half = Display.Characterize.white_sweep ~steps ~backlight:128 measure in
  Printf.printf "  %-8s %-14s %s\n" "white" "backlight=255" "backlight=128";
  Array.iteri
    (fun i level ->
      Printf.printf "  %-8d %-14.1f %.1f\n" level
        full.Display.Characterize.readings.(i)
        half.Display.Characterize.readings.(i))
    full.Display.Characterize.levels;
  let recovered = Display.Characterize.recover_transfer ~steps measure in
  let err =
    Display.Characterize.max_relative_error recovered
      device.Display.Device.panel.Display.Panel.transfer
  in
  Printf.printf "\nrecovered transfer function vs factory curve: max error %.3f\n" err;
  Printf.printf "register needed for half luminance: recovered %d, factory %d\n"
    (Display.Transfer.inverse recovered 0.5)
    (Display.Device.register_for_gain device 0.5);
  0

let cmd =
  let doc = "characterise a device display with the camera rig" in
  Cmd.v
    (Cmd.info "characterize" ~doc)
    Term.(
      const run $ Common.device_arg $ Common.device_file_arg $ steps_arg
      $ Common.resilience_arg $ Common.obs_arg $ Common.trace_out_arg $ Common.energy_profile_arg
      $ Common.journal_arg $ Common.monitor_arg $ Common.slo_arg
      $ Common.metrics_out_arg)

let () = exit (Cmd.eval' cmd)

(* fleet: drive thousands of interleaved streaming sessions through
   the deterministic shard scheduler and report fleet-level health. *)

open Cmdliner

let shards_arg =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"N"
        ~doc:"Number of consistent-hash shards fronting the prepared cache.")

let vnodes_arg =
  Arg.(
    value & opt int 64
    & info [ "vnodes" ] ~docv:"N" ~doc:"Virtual nodes per shard on the ring.")

let capacity_arg =
  Arg.(
    value & opt int 64
    & info [ "capacity" ] ~docv:"N"
        ~doc:"Concurrent sessions admitted per shard.")

let queue_limit_arg =
  Arg.(
    value & opt int 256
    & info [ "queue-limit" ] ~docv:"N"
        ~doc:"Waiting-room depth per shard before arrivals are shed.")

let load_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:
          "Load profile (key = value lines: arrival model, session count, \
           rate, Zipf skew, diurnal swing, flash-crowd spike — see \
           examples/*.load). Defaults to an open loop of 1000 sessions at \
           100/s.")

let sessions_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sessions" ] ~docv:"N"
        ~doc:"Override the profile's session count.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Override the profile's seed.")

let journal_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Write the fleet decision journal (every shard's arrivals, \
           admission verdicts and session outcomes, concatenated in shard \
           order) to $(docv). Audit it offline with $(b,lint verify).")

let monitor_arg =
  Arg.(
    value & flag
    & info [ "monitor" ]
        ~doc:
          "Print the fleet-wide SLO rollup and exit with status 3 when an \
           objective is breached.")

let slo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo" ] ~docv:"FILE"
        ~doc:
          "Evaluate the rollup against the rules in $(docv) (one `metric op \
           threshold` per line) instead of the fleet defaults. Implies \
           $(b,--monitor).")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Also print the per-shard breakdown.")

let fleet_width_arg =
  Arg.(value & opt int 32 & info [ "width" ] ~docv:"PX" ~doc:"Catalog frame width.")

let fleet_height_arg =
  Arg.(
    value & opt int 24 & info [ "height" ] ~docv:"PX" ~doc:"Catalog frame height.")

let fleet_fps_arg =
  Arg.(value & opt float 8. & info [ "fps" ] ~docv:"FPS" ~doc:"Catalog frame rate.")

let run shards vnodes capacity queue_limit load_file sessions seed device_name
    device_file quality width height fps loss_model loss burst fault_profile
    journal_out monitor slo verbose jobs =
  let device =
    Common.or_die (Common.resolve_device_with_file ~file:device_file device_name)
  in
  let load =
    match load_file with
    | None -> Fleet.Load.default
    | Some path -> (
      match Fleet.Load.load ~path with
      | Ok l -> l
      | Error msg ->
        prerr_endline ("error: " ^ path ^ ": " ^ msg);
        exit 1)
  in
  let load =
    match sessions with
    | None -> load
    | Some n ->
      if n < 1 then begin
        prerr_endline "error: --sessions must be at least 1";
        exit 1
      end;
      { load with Fleet.Load.sessions = n }
  in
  let load =
    match seed with None -> load | Some s -> { load with Fleet.Load.seed = s }
  in
  let rules =
    match slo with
    | None -> Fleet.Scheduler.default_rules ()
    | Some path -> (
      match Obs.Slo.load ~path with
      | Ok rules -> rules
      | Error msg ->
        prerr_endline ("error: " ^ path ^ ": " ^ msg);
        exit 1)
  in
  let config = { Fleet.Scheduler.shards; vnodes; capacity; queue_limit; rules } in
  let fault = Common.resolve_fault ~loss_model ~loss ~burst ~fault_profile in
  let session_config =
    {
      (Streaming.Session.default_config ~device) with
      Streaming.Session.quality = quality;
      fault;
    }
  in
  (* The whole catalog, rendered small: fleet throughput comes from
     interleaving many sessions, not from large frames. *)
  let clips =
    Array.of_list
      (List.map
         (fun name ->
           Common.or_die (Common.resolve_clip name ~width ~height ~fps))
         Video.Workloads.names)
  in
  let report =
    try
      Common.with_jobs jobs (fun pool ->
          Fleet.Scheduler.run ?pool config ~session_config ~clips ~load)
    with Invalid_argument msg ->
      prerr_endline ("error: " ^ msg);
      exit 1
  in
  Format.printf "%a@." Fleet.Scheduler.pp_report
    (if verbose then report
     else { report with Fleet.Scheduler.shard_reports = [||] });
  (match journal_out with
  | None -> ()
  | Some path -> (
    let bytes = Fleet.Scheduler.journal report in
    try
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
      Printf.eprintf "fleet: wrote %s (%d events, %d bytes)\n%!" path
        (List.length report.Fleet.Scheduler.journal_events)
        (String.length bytes)
    with Sys_error msg ->
      prerr_endline ("error: cannot write journal: " ^ msg);
      exit 1));
  if monitor || slo <> None then begin
    Format.printf "%a@." Obs.Monitor.pp_report report.Fleet.Scheduler.monitor;
    if Obs.Monitor.healthy report.Fleet.Scheduler.monitor then 0 else 3
  end
  else 0

let cmd =
  let doc = "run a fleet of streaming sessions through the shard scheduler" in
  Cmd.v
    (Cmd.info "fleet" ~doc)
    Term.(
      const run $ shards_arg $ vnodes_arg $ capacity_arg $ queue_limit_arg
      $ load_arg $ sessions_arg $ seed_arg $ Common.device_arg
      $ Common.device_file_arg $ Common.quality_arg $ fleet_width_arg
      $ fleet_height_arg $ fleet_fps_arg $ Common.loss_model_arg
      $ Common.loss_arg $ Common.burst_arg $ Common.fault_profile_arg
      $ journal_out_arg $ monitor_arg $ slo_arg $ verbose_arg $ Common.jobs_arg)

let () = exit (Cmd.eval' cmd)

(* Shared cmdliner terms for the command-line tools. *)

open Cmdliner

let clip_arg =
  let doc =
    "Workload clip name. One of: " ^ String.concat ", " Video.Workloads.names ^ "."
  in
  Arg.(
    required
    & opt (some string) None
    & info [ "c"; "clip" ] ~docv:"CLIP" ~doc)

let device_arg =
  let doc =
    "Target device. One of: "
    ^ String.concat ", " (List.map (fun d -> d.Display.Device.name) Display.Device.all)
    ^ "."
  in
  Arg.(
    value
    & opt string "ipaq_h5555"
    & info [ "d"; "device" ] ~docv:"DEVICE" ~doc)

let device_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "device-file" ] ~docv:"FILE"
        ~doc:
          "Load the target device from a key = value profile (see \
           Display.Device_config); overrides $(b,--device).")

let quality_arg =
  let doc = "Quality level: allowed percentage of clipped bright pixels (0-100)." in
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected a number" s))
    | Some p -> Result.map_error (fun m -> `Msg m) (Annotation.Quality_level.of_percent p)
  in
  let print ppf q =
    Format.fprintf ppf "%g" (100. *. Annotation.Quality_level.allowed_loss q)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Annotation.Quality_level.Loss_10
    & info [ "q"; "quality" ] ~docv:"PERCENT" ~doc)

let width_arg =
  Arg.(value & opt int 160 & info [ "width" ] ~docv:"PX" ~doc:"Frame width.")

let height_arg =
  Arg.(value & opt int 120 & info [ "height" ] ~docv:"PX" ~doc:"Frame height.")

let fps_arg =
  Arg.(value & opt float 12. & info [ "fps" ] ~docv:"FPS" ~doc:"Frame rate.")

let resolve_clip name ~width ~height ~fps =
  match Video.Workloads.find name with
  | Some profile -> Ok (Video.Clip_gen.render ~width ~height ~fps profile)
  | None ->
    Error
      (Printf.sprintf "unknown clip %S (try one of: %s)" name
         (String.concat ", " Video.Workloads.names))

let resolve_device name =
  match Display.Device.find name with
  | Some d -> Ok d
  | None ->
    Error
      (Printf.sprintf "unknown device %S (try one of: %s)" name
         (String.concat ", "
            (List.map (fun d -> d.Display.Device.name) Display.Device.all)))

let resolve_device_with_file ~file name =
  match file with
  | Some path -> Display.Device_config.load ~path
  | None -> resolve_device name

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    exit 1

let loss_model_arg =
  Arg.(
    value
    & opt (some (enum [ ("bernoulli", `Bernoulli); ("gilbert", `Gilbert) ])) None
    & info [ "loss-model" ] ~docv:"MODEL"
        ~doc:
          "Inject packet loss on the wireless hop: $(b,bernoulli) (i.i.d.) or \
           $(b,gilbert) (Gilbert-Elliott burst loss). Mean rate comes from \
           $(b,--loss), burst length from $(b,--burst).")

let loss_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "loss" ] ~docv:"RATE"
        ~doc:
          "Mean loss rate in [0, 1] for $(b,--loss-model) (default 0.05). \
           Given without $(b,--loss-model) or $(b,--fault-profile), it is an \
           error.")

let burst_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "burst" ] ~docv:"PACKETS"
        ~doc:
          "Mean burst length for $(b,--loss-model) gilbert (default 4). Given \
           without $(b,--loss-model) or $(b,--fault-profile), it is an error.")

let fault_profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-profile" ] ~docv:"FILE"
        ~doc:
          "Load a fault profile (key = value lines: loss model, corruption, \
           reorder, jitter, bandwidth collapse — see examples/*.fault). \
           Overrides $(b,--loss-model).")

(* The fault model the flags describe, if any. [--loss] and [--burst]
   only parameterise a loss model: given alone they would silently
   describe a lossless run, so they are an error. *)
let resolve_fault ~loss_model ~loss ~burst ~fault_profile =
  let die msg =
    prerr_endline ("error: " ^ msg);
    exit 1
  in
  match (fault_profile, loss_model) with
  | Some path, _ -> (
    match Streaming.Fault.load ~path with
    | Ok f -> Some f
    | Error msg -> die (path ^ ": " ^ msg))
  | None, None ->
    if loss <> None || burst <> None then
      die "--loss and --burst need --loss-model (or --fault-profile)";
    None
  | None, Some model -> (
    let loss = Option.value loss ~default:0.05 in
    try
      match model with
      | `Bernoulli -> Some (Streaming.Fault.bernoulli ~rate:loss)
      | `Gilbert ->
        Some
          (Streaming.Fault.gilbert ~mean_loss:loss
             ~burst_length:(Option.value burst ~default:4.) ())
    with Invalid_argument msg -> die msg)

let resilience_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resilience" ] ~docv:"PROFILE"
        ~doc:
          "Load a resilience profile (key = value lines: retry schedule, \
           circuit breaker, bulkhead, degradation ladder, stage deadline — \
           see examples/*.resilience). Only takes effect on the faulty path \
           ($(b,--fault-profile) / $(b,--loss-model)); without it every run \
           is byte-identical to one without this flag. Audit a profile \
           offline with $(b,lint verify).")

(* The resilience profile the flag names, if any. A no-op profile is
   accepted (the verifier's V505 warns about it); a malformed one is
   fatal, same as a malformed fault profile. *)
let resolve_resilience = function
  | None -> None
  | Some path -> (
    match Resilience.Profile.load ~path with
    | Ok p -> Some p
    | Error msg ->
      prerr_endline ("error: " ^ path ^ ": " ^ msg);
      exit 1)

(* The session-config additions a resilience profile implies for an
   end-to-end faulty run: the profile itself, plus — when its ladder
   offers the stale rung — a stale annotation track prepared the way
   an earlier session would have: the same clip through a server at
   the most conservative quality (0 %), server-side mapping, the
   profile's bulkhead guarding the build. Deterministic: one prepare,
   one cache entry, same bytes every run. *)
let session_resilience ~device clip = function
  | None -> (None, None)
  | Some (p : Resilience.Profile.t) ->
    let wants_stale =
      match p.Resilience.Profile.ladder with
      | [] -> true
      | rungs -> List.mem Resilience.Degrade.Stale_cache rungs
    in
    let stale =
      if not wants_stale then None
      else begin
        let server = Streaming.Server.create () in
        Streaming.Server.add_clip server clip;
        let bulkhead =
          Option.map
            (fun cfg ->
              Resilience.Bulkhead.create ~config:cfg ~name:"prepare" ())
            p.Resilience.Profile.bulkhead
        in
        match
          Streaming.Negotiation.negotiate
            {
              Streaming.Negotiation.device;
              requested_quality = Annotation.Quality_level.Lossless;
            }
        with
        | Error _ -> None
        | Ok session -> (
          match
            Streaming.Server.prepare ?bulkhead server
              ~name:clip.Video.Clip.name ~session
          with
          | Ok prep -> Some prep.Streaming.Server.track
          | Error _ -> None)
      end
    in
    (Some p, stale)

let jobs_arg =
  Arg.(
    value
    & opt int (Par.Pool.env_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Spread the profiling pass over $(docv) domains. Output is \
           byte-identical at any $(docv); only wall clock changes. Defaults \
           to $(b,PAR_JOBS) from the environment, else 1.")

(* [with_jobs jobs f] hands [f] a pool of [jobs] domains (or [None]
   for a sequential run) and tears the pool down afterwards. The
   count is normalized, not validated: 0, negative and oversized
   requests clamp (Par.Pool.normalize_jobs) instead of erroring,
   because the domain count is a performance knob that never changes
   results. *)
let with_jobs jobs f =
  let jobs = Par.Pool.normalize_jobs jobs in
  if jobs = 1 then f None
  else Par.Pool.with_pool ~domains:jobs (fun pool -> f (Some pool))

let obs_arg =
  Arg.(
    value & flag
    & info [ "obs" ]
        ~doc:
          "Enable the observability layer: collect pipeline metrics and spans \
           and print a summary on exit.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's span tree as Chrome trace_event JSON to $(docv) \
           (open with chrome://tracing). Implies $(b,--obs).")

let monitor_arg =
  Arg.(
    value & flag
    & info [ "monitor" ]
        ~doc:
          "Enable health monitoring: sliding-window SLO evaluation and \
           quantile sketches on every histogram. Prints a health report on \
           exit and exits with status 3 when an objective is breached. \
           Implies $(b,--obs).")

let slo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo" ] ~docv:"FILE"
        ~doc:
          "Load SLO rules from $(docv) (one `metric op threshold` per line, \
           see examples/default.slo) instead of the built-in defaults. \
           Implies $(b,--monitor).")

let energy_profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "energy-profile" ] ~docv:"FILE"
        ~doc:
          "Attribute simulated joules per stage/scene/component with the \
           energy profiler and write a collapsed-stack energy flame graph \
           (integer microjoules) to $(docv); feed it to flamegraph.pl or \
           speedscope. Adds a per-component summary to the obs output and a \
           counter track to $(b,--trace-out). Implies $(b,--obs).")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Record every pipeline decision (scene backlight choices, channel \
           losses, NACK rounds, degradations, DVFS picks, SLO breaches) into \
           a CRC-framed binary journal at $(docv). Read it back with \
           $(b,inspect), audit it offline with $(b,lint verify). Implies \
           $(b,--obs).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the final registry snapshot as OpenMetrics/Prometheus text \
           (quantile summaries and trace critical path included) to $(docv). \
           Implies $(b,--monitor).")

(* Run [f] (returning an exit code) with observability / monitoring
   switched on as requested. The obs summary and trace file go to
   stderr so the tools' stdout stays script-friendly; the health
   report is the monitoring deliverable and goes to stdout. An SLO
   breach turns a successful exit into code 3. *)
let with_instrumentation ?(default_quality = 0.10) ?(energy_profile = None)
    ?(journal = None) ~obs ~trace_out ~monitor ~slo
    ~metrics_out f =
  let monitoring = monitor || slo <> None || metrics_out <> None in
  let enabled =
    obs || trace_out <> None || energy_profile <> None || journal <> None
    || monitoring
  in
  if not enabled then f ()
  else begin
    Obs.enable ();
    let recorder =
      match journal with
      | None -> None
      | Some _ ->
        let j = Obs.Journal.create () in
        Obs.Journal.install j;
        Some j
    in
    let profiler =
      match energy_profile with
      | None -> None
      | Some _ ->
        let p = Obs.Profile.create () in
        Obs.Profile.install p;
        Some p
    in
    let mon =
      if not monitoring then None
      else begin
        let rules =
          match slo with
          | None -> Obs.Slo.defaults ~quality:default_quality
          | Some path -> (
            match Obs.Slo.load ~path with
            | Ok rules -> rules
            | Error msg ->
              prerr_endline ("error: " ^ path ^ ": " ^ msg);
              exit 1)
        in
        let m = Obs.Monitor.create ~rules () in
        Obs.Monitor.install m;
        Some m
      end
    in
    let code =
      Fun.protect f ~finally:(fun () ->
          (* The trace is written while the profiler is still
             installed so its counter track rides along. *)
          (match trace_out with
          | None -> ()
          | Some path -> (
            try
              Obs.write_chrome_trace ~path;
              Printf.eprintf "obs: wrote %s\n%!" path
            with Sys_error msg ->
              Printf.eprintf "obs: cannot write trace: %s\n%!" msg));
          (match (energy_profile, profiler) with
          | Some path, Some p ->
            (try
               Obs.write_file ~path (Obs.Profile.flamegraph p);
               Printf.eprintf "obs: wrote %s\n%!" path
             with Sys_error msg ->
               Printf.eprintf "obs: cannot write energy profile: %s\n%!" msg);
            Format.eprintf "%a@." Obs.Profile.pp_summary p;
            Obs.Profile.uninstall ()
          | _ -> ());
          if obs || trace_out <> None then Format.eprintf "%a@." Obs.pp_summary ())
    in
    let code =
      match mon with
      | None -> code
      | Some m ->
        let report = Obs.Monitor.report m in
        Format.printf "%a@." Obs.Monitor.pp_report report;
        (match metrics_out with
        | None -> ()
        | Some path -> (
          match Obs.Openmetrics.write_file ~path (Obs.Openmetrics.of_registry ()) with
          | Ok () -> Printf.eprintf "obs: wrote %s\n%!" path
          | Error msg -> Printf.eprintf "obs: cannot write metrics: %s\n%!" msg));
        Obs.Monitor.uninstall ();
        if code <> 0 then code else if Obs.Monitor.healthy report then 0 else 3
    in
    (* The journal is sealed last: the monitor's final window closes
       inside [Obs.Monitor.report] above, and the Slo_breach events it
       emits belong in the file. *)
    (match (journal, recorder) with
    | Some path, Some j ->
      Obs.Journal.uninstall ();
      (try
         Obs.Journal.write j ~path;
         Printf.eprintf "obs: wrote %s (%d events, %d bytes)\n%!" path
           (Obs.Journal.length j) (Obs.Journal.size_bytes j)
       with Sys_error msg ->
         Printf.eprintf "obs: cannot write journal: %s\n%!" msg)
    | _ -> ());
    code
  end

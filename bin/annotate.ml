(* annotate: profile a clip and emit its backlight annotation track —
   what the paper's server runs offline. *)

open Cmdliner

let per_frame_arg =
  Arg.(
    value & flag
    & info [ "per-frame" ]
        ~doc:"Annotate every frame instead of detected scenes (more savings, more flicker).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the binary annotation track to $(docv).")

(* Simulate the annotation track's own trip over a faulty side
   channel: FEC, the NACK loop, then a partial decode — the server-side
   view of what the client will actually be able to use. *)
let simulate_side_channel ~fault ~resilience encoded =
  let protected_ = Streaming.Fec.protect ~packet_size:24 ~group_size:3 encoded in
  let arrival = Streaming.Fault.apply fault ~seed:1 protected_.Streaming.Fec.packets in
  let policy =
    Option.bind resilience (fun p -> p.Resilience.Profile.retry)
  in
  let breaker =
    match resilience with
    | Some { Resilience.Profile.breaker = Some bc; _ } ->
      Some (Resilience.Breaker.create ~config:bc ~name:"nack" ())
    | _ -> None
  in
  let arrival, nack =
    Streaming.Transport.nack_retransmit ?policy ?breaker ~fault
      ~link:Streaming.Netsim.wlan_80211b
      ~budget_s:0.04 ~seed:32 ~packets:protected_.Streaming.Fec.packets arrival
  in
  let recovery = Streaming.Fec.recover_detail protected_ ~present:arrival in
  Format.printf "@.side channel under %a:@." Streaming.Fault.pp fault;
  Printf.printf "  %d packets shipped, %d retransmitted over %d NACK rounds\n"
    (Array.length protected_.Streaming.Fec.packets)
    nack.Streaming.Transport.packets_retransmitted
    nack.Streaming.Transport.nack_rounds;
  (match breaker with
  | None -> ()
  | Some b ->
    Printf.printf "  breaker: %s (%d transition(s), failure rate %.1f%%)\n"
      (Resilience.Breaker.state_label (Resilience.Breaker.state b))
      (List.length (Resilience.Breaker.transitions b))
      (float_of_int (Resilience.Breaker.failure_permille b) /. 10.));
  match
    Annotation.Encoding.decode_partial ~byte_ok:recovery.Streaming.Fec.byte_ok
      recovery.Streaming.Fec.payload
  with
  | Error msg ->
    Printf.printf "  track unusable (%s): client plays full backlight\n" msg
  | Ok partial ->
    let module E = Annotation.Encoding in
    let total = Array.length partial.E.records in
    Printf.printf "  records: %d intact, %d missing, %d corrupt of %d\n"
      (total - partial.E.missing_records - partial.E.corrupt_records)
      partial.E.missing_records partial.E.corrupt_records total

let run clip_name device_name device_file quality per_frame output width height fps fault_profile resilience_file jobs obs trace_out energy_profile journal monitor slo metrics_out =
  Common.with_instrumentation ~default_quality:(Annotation.Quality_level.allowed_loss quality)
    ~energy_profile ~journal ~obs ~trace_out ~monitor ~slo ~metrics_out
  @@ fun () ->
  Common.with_jobs jobs
  @@ fun pool ->
  let clip =
    Common.or_die (Common.resolve_clip clip_name ~width ~height ~fps)
  in
  let device =
    Common.or_die (Common.resolve_device_with_file ~file:device_file device_name)
  in
  let scene_params =
    if per_frame then Annotation.Scene_detect.per_frame_params
    else Annotation.Scene_detect.default_params
  in
  let track =
    Annotation.Annotator.annotate ~scene_params ?pool ~device ~quality clip
  in
  let encoded = Annotation.Encoding.encode track in
  Printf.printf "clip      : %s (%d frames, %.1f s at %.1f fps, %dx%d)\n"
    clip.Video.Clip.name clip.Video.Clip.frame_count
    (Video.Clip.duration_seconds clip) fps width height;
  Printf.printf "device    : %s\n" device.Display.Device.name;
  Printf.printf "quality   : %s clipped-pixel budget\n" (Annotation.Quality_level.label quality);
  Printf.printf "scenes    : %d entries, %d backlight switches\n"
    (Annotation.Track.entry_count track)
    (Annotation.Track.switch_count track);
  Printf.printf "wire size : %d bytes (v2: varint header + CRC32 records)\n"
    (String.length encoded);
  Printf.printf "\n%-8s %-8s %-10s %-10s %s\n" "first" "frames" "register" "eff.max"
    "compensation";
  print_endline (String.make 50 '-');
  Array.iter
    (fun (e : Annotation.Track.entry) ->
      Printf.printf "%-8d %-8d %-10d %-10d x%.2f\n" e.Annotation.Track.first_frame
        e.Annotation.Track.frame_count e.Annotation.Track.register e.Annotation.Track.effective_max
        e.Annotation.Track.compensation)
    (Annotation.Track.merge_runs track).Annotation.Track.entries;
  let resilience = Common.resolve_resilience resilience_file in
  (match
     Common.resolve_fault ~loss_model:None ~loss:None ~burst:None ~fault_profile
   with
  | None -> ()
  | Some fault -> simulate_side_channel ~fault ~resilience encoded);
  (match output with
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    output_string oc encoded;
    close_out oc;
    Printf.printf "\nwrote %s\n" path);
  0

let cmd =
  let doc = "profile a video clip and compute its backlight annotations" in
  Cmd.v
    (Cmd.info "annotate" ~doc)
    Term.(
      const run $ Common.clip_arg $ Common.device_arg $ Common.device_file_arg
      $ Common.quality_arg $ per_frame_arg $ output_arg $ Common.width_arg
      $ Common.height_arg $ Common.fps_arg $ Common.fault_profile_arg
      $ Common.resilience_arg $ Common.jobs_arg $ Common.obs_arg
      $ Common.trace_out_arg $ Common.energy_profile_arg $ Common.journal_arg
      $ Common.monitor_arg $ Common.slo_arg $ Common.metrics_out_arg)

let () = exit (Cmd.eval' cmd)

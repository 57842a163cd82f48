(* A live videoconference through the proxy: the full §3 story in one
   session. The proxy annotates the stream on the fly with a bounded
   lookahead (no offline profiling exists for live content), encodes
   it at a coarser quantiser for the wireless hop, and the client
   exploits all three annotation applications at once: backlight
   scaling, CPU frequency scaling, and radio sleep scheduling.

   Run with:  dune exec examples/live_conference.exe *)

let () =
  let device = Display.Device.ipaq_h5555 in
  let fps = 12. in
  (* A "conference" clip: a talking head (slow subject) in a lamp-lit
     room — dark enough for the backlight to matter. *)
  let conference =
    {
      Video.Profile.name = "conference";
      seed = 2026;
      scenes =
        [
          Video.Profile.scene ~seconds:20. ~noise_sigma:2.5 ~vignette:0.3
            ~subjects:
              [
                { Video.Profile.level = 150; size = 260; speed = 0.8; vertical_phase = 0.55 };
              ]
            ~highlights:{ Video.Profile.count = 2; peak = 180; radius = 30; drift = 0. }
            (Video.Profile.Radial { center = 70; edge = 30 });
        ];
    }
  in
  let clip = Video.Clip_gen.render ~width:160 ~height:120 ~fps conference in

  (* 1. The proxy annotates live with half a second of lookahead. *)
  let lookahead = 6 in
  let quality = Annotation.Quality_level.Loss_10 in
  let track =
    Annotation.Live.annotate ~lookahead ~device ~quality
      (Annotation.Annotator.profile clip)
  in
  let annotation_bytes = Annotation.Encoding.encode track in
  Printf.printf "live annotation: %d bytes, %.2f s added latency\n"
    (String.length annotation_bytes)
    (Annotation.Live.added_latency_s ~lookahead ~fps);

  (* 2. The proxy encodes for a congested 802.11b hop at a coarser
     quantiser than the default. *)
  let slow_link =
    Streaming.Netsim.make ~bandwidth_bps:400_000. ~packet_payload_bytes:1400
      ~per_packet_overhead_bytes:54
  in
  let shipped =
    Codec.Encoder.encode_clip
      ~params:{ Codec.Stream.default_params with qp = 16 }
      clip
  in
  Printf.printf "encode: %d KB at qp %d, %.0f kbit/s on a %.0f kbit/s link\n"
    (Codec.Encoder.total_bytes shipped / 1024)
    shipped.Codec.Encoder.params.Codec.Stream.qp
    (float_of_int (Codec.Encoder.total_bytes shipped) *. 8.
     /. Video.Clip.duration_seconds clip /. 1000.)
    (slow_link.Streaming.Netsim.bandwidth_bps /. 1000.);

  (* 3a. Backlight scaling from the live annotations. *)
  let backlight_report =
    Streaming.Playback.run_with_registers ~device ~quality ~clip_name:"conference" ~fps
      ~annotation_bytes:(String.length annotation_bytes)
      (Annotation.Track.register_track track)
  in
  Printf.printf "backlight: %.1f%% saved (device: %.1f%%)\n"
    (100. *. backlight_report.Streaming.Playback.backlight_savings)
    (100. *. backlight_report.Streaming.Playback.total_savings);

  (* 3b. CPU scaling from per-frame workload annotations. *)
  let cycles = Streaming.Dvfs_playback.decode_cycles shipped in
  let dvfs =
    Streaming.Dvfs_playback.run ~fps cycles
      Streaming.Dvfs_playback.Annotated_workload
  in
  Printf.printf "cpu: %.1f%% saved at %d deadline misses (mean %.0f MHz)\n"
    (100. *. dvfs.Streaming.Dvfs_playback.savings)
    dvfs.Streaming.Dvfs_playback.deadline_misses
    dvfs.Streaming.Dvfs_playback.mean_frequency_mhz;

  (* 3c. Radio sleep scheduling from burst-size annotations. *)
  let frame_bytes =
    Array.map (fun bits -> (bits + 7) / 8) shipped.Codec.Encoder.frame_sizes_bits
  in
  let radio =
    Streaming.Radio.run ~link:slow_link ~fps ~gop:12 ~frame_bytes
      Streaming.Radio.Annotated_bursts
  in
  Printf.printf "radio: %.1f%% saved, dozing %.0f%% of the session\n"
    (100. *. radio.Streaming.Radio.savings)
    (100. *. radio.Streaming.Radio.sleep_fraction)

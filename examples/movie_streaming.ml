(* The full system model of the paper's Fig 1: a server stores movies
   and annotates them; a client negotiates a session, receives the
   compensated stream plus the annotation side channel over a WLAN
   link, decodes, and adjusts its backlight from the annotations.

   Run with:  dune exec examples/movie_streaming.exe

   The observability layer is switched on so the run ends with
   stage-by-stage statistics: what the codec, annotator, FEC and
   playback each did, and how long every pipeline stage took. *)

let () =
  Obs.enable ();
  let device = Display.Device.ipaq_h5555 in

  (* Server side: a catalog of clips. *)
  let server = Streaming.Server.create () in
  List.iter
    (fun profile ->
      Streaming.Server.add_clip server
        (Video.Clip_gen.render ~width:96 ~height:72 ~fps:10. profile))
    [ Video.Workloads.catwoman; Video.Workloads.ice_age ];
  Printf.printf "server catalog: %s\n\n"
    (String.concat ", " (Streaming.Server.clip_names server));

  (* Client side: negotiate and stream each clip. *)
  let link = Streaming.Netsim.wlan_80211b in
  List.iter
    (fun name ->
      let hello =
        { Streaming.Negotiation.device; requested_quality = Annotation.Quality_level.Loss_10 }
      in
      let session =
        match Streaming.Negotiation.negotiate hello with
        | Ok s -> s
        | Error e -> failwith e
      in
      let prepared =
        match Streaming.Server.prepare server ~name ~session with
        | Ok p -> p
        | Error e -> failwith e
      in
      (* Ship the video through the codec to size the stream. *)
      let encoded =
        match Streaming.Server.encode_video server ~name with
        | Ok e -> e
        | Error e -> failwith e
      in
      let video_bytes = Codec.Encoder.total_bytes encoded in
      let annotation_bytes = String.length prepared.Streaming.Server.annotation_bytes in
      Printf.printf "%s:\n" name;
      Printf.printf "  video %d bytes, annotations %d bytes (%.4f%% overhead)\n"
        video_bytes annotation_bytes
        (100.
         *. Streaming.Netsim.annotation_overhead_ratio link ~video_bytes
              ~annotation_bytes);
      Printf.printf "  transfer time over 802.11b: %.2f s\n"
        (Streaming.Netsim.transfer_time_s link (video_bytes + annotation_bytes));
      (* The client decodes the annotations and plays back. *)
      let track =
        match Annotation.Encoding.decode prepared.Streaming.Server.annotation_bytes with
        | Ok t -> t
        | Error e -> failwith e
      in
      let report =
        Streaming.Playback.run_with_registers ~device
          ~quality:session.Streaming.Negotiation.quality ~clip_name:name
          ~fps:10. ~annotation_bytes
          (Annotation.Track.register_track track)
      in
      Printf.printf "  backlight saved %.1f%%, device saved %.1f%%, %d switches\n\n"
        (100. *. report.Streaming.Playback.backlight_savings)
        (100. *. report.Streaming.Playback.total_savings)
        report.Streaming.Playback.switch_count)
    (Streaming.Server.clip_names server);

  (* One full end-to-end session over a lossy hop, reported together
     with the per-stage observability summary. *)
  let clip = Video.Clip_gen.render ~width:96 ~height:72 ~fps:10. Video.Workloads.catwoman in
  let config =
    { (Streaming.Session.default_config ~device) with
      Streaming.Session.fault = Some (Streaming.Fault.bernoulli ~rate:0.05) }
  in
  match Streaming.Session.run config clip with
  | Error e -> failwith e
  | Ok report ->
    Printf.printf "end-to-end session (5%% loss):\n";
    Format.printf "%a@." Streaming.Session.pp_report_obs report

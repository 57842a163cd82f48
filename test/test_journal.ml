(* The flight recorder: wire round-trips for every event kind,
   salvage behaviour on damaged bytes, behaviour-neutrality of the
   hooks, the run-diff primitive on a deterministic session pair, and
   the offline verifier's V4xx corpus. *)

module Journal = Obs.Journal
module Explain = Obs.Explain
module Artifact = Check.Artifact
module Diagnostic = Check.Diagnostic

let device = Display.Device.ipaq_h5555

(* One event of every kind, timestamps shaped like a real session:
   each phase replays its own clock. *)
let all_kinds_events =
  let e t_us kind = { Journal.t_us; kind } in
  [
    e 0
      (Journal.Session_start
         {
           clip = "clip";
           device = "ipaq_h5555";
           quality = "10%";
           frames = 48;
           fps_milli = 8000;
         });
    e 0
      (Journal.Scene_decision
         {
           scene = 0;
           first_frame = 0;
           frame_count = 6;
           register = 78;
           effective_max = 99;
           compensation_fp = 10543;
           clipped_permille = 99;
           quality_permille = 100;
           candidates = [ 235; 95; 78; 64; 41 ];
         });
    e 750_000
      (Journal.Scene_decision
         {
           scene = 1;
           first_frame = 6;
           frame_count = 42;
           register = 255;
           effective_max = 255;
           compensation_fp = 4096;
           clipped_permille = 0;
           quality_permille = 100;
           candidates = [ 255; 255; 255; 255; 255 ];
         });
    e 0 (Journal.Channel { packets = 8; delivered = 7 });
    e 2_000 (Journal.Nack_round { round = 1; missing = 1; repaired = 1 });
    e 2_500 (Journal.Fec_outcome { failed_groups = 0; repaired_packets = 1 });
    e 3_000
      (Journal.Degradation
         { index = 2; trigger = Journal.Record_corrupt; policy = "neighbour_clamp" });
    e 3_000
      (Journal.Degradation
         { index = -1; trigger = Journal.Header_lost; policy = "full_backlight" });
    e 3_500
      (Journal.Degradation
         { index = 0; trigger = Journal.Record_lost; policy = "full_backlight" });
    e 0 (Journal.Dvfs_choice { policy = "annotated"; mean_mhz = 100; misses = 0 });
    e 750_000 (Journal.Scene_cut { scene = 1; frame = 6 });
    e 750_000
      (Journal.Backlight_switch { frame = 6; from_register = 78; to_register = 255 });
    e 800_000 (Journal.Deadline_miss { frame = 7; over_us = 1250 });
    e 900_000
      (Journal.Slo_breach
         {
           rule = "deadline_miss_rate < 0.05";
           window = 3;
           value_milli = 62;
           window_us = 500_000;
         });
    e 0
      (Journal.Bulkhead_decision
         { name = "prepare"; decision = "shed"; in_flight = 2; queued = 2 });
    e 2_600 (Journal.Ladder_step { scene = 2; depth = 1; step = "stale" });
    e 2_700 (Journal.Ladder_step { scene = -1; depth = 3; step = "full" });
    e 2_800
      (Journal.Breaker_transition
         { name = "nack"; from_state = 0; to_state = 2; failure_permille = 625 });
    e 2_900
      (Journal.Watchdog_trip
         { stage = "transmit"; budget_us = 40_000; over_us = 1_250 });
    e 6_000_000
      (Journal.Session_end
         { survived = true; degraded_scenes = 1; retransmissions = 1; corrupt_records = 1 });
    (* A fleet shard block: Fleet_shard_start resets the verifier's
       clock the same way Session_start does. *)
    e 0 (Journal.Fleet_shard_start { shard = 1; shards = 4; sessions = 2 });
    e 1_000 (Journal.Fleet_arrival { session = 7; clip = "clip" });
    e 1_000
      (Journal.Fleet_admission
         { session = 7; decision = "admitted"; in_flight = 3; queued = 0 });
    e 2_000_000
      (Journal.Fleet_session_end
         { session = 7; outcome = "degraded"; degraded_scenes = 1 });
  ]

let blob = Journal.encode all_kinds_events

(* --- wire round trip ---------------------------------------------------- *)

let test_round_trip () =
  match Journal.decode blob with
  | Error msg -> Alcotest.fail msg
  | Ok events ->
    Alcotest.(check bool) "every kind survives encode/decode" true
      (events = all_kinds_events)

let test_recorder_round_trip () =
  (* The recorder path: record_in clamps seconds to microseconds. The
     stamps run forward, as the strict decoder's clock rule asks. *)
  let j = Journal.create () in
  Journal.record_in j (Journal.Scene_cut { scene = 0; frame = 0 });
  Journal.record_in j ~t_s:(-3.) (Journal.Scene_cut { scene = 0; frame = 0 });
  Journal.record_in j ~t_s:1.5 (Journal.Scene_cut { scene = 2; frame = 12 });
  match Journal.decode (Journal.to_string j) with
  | Error msg -> Alcotest.fail msg
  | Ok [ a; b; c ] ->
    Alcotest.(check int) "default is zero" 0 a.Journal.t_us;
    Alcotest.(check int) "negative clamps to zero" 0 b.Journal.t_us;
    Alcotest.(check int) "seconds become microseconds" 1_500_000 c.Journal.t_us
  | Ok events ->
    Alcotest.fail (Printf.sprintf "expected 3 events, got %d" (List.length events))

(* --- salvage on damaged bytes ------------------------------------------- *)

(* Byte offset where frame [n] starts (frames are varint len + payload
   + 4-byte CRC; all test payloads are short enough for 1-byte
   varints). *)
let frame_offset n =
  let pos = ref 9 in
  for _ = 1 to n do
    let len = Char.code blob.[!pos] in
    pos := !pos + 1 + len + 4
  done;
  !pos

let test_partial_truncation () =
  (* Cut mid-way through the 4th frame: the first three events
     survive, the decoder reports the truncation, nothing raises. *)
  let cut = String.sub blob 0 (frame_offset 3 + 2) in
  let p = Journal.decode_partial cut in
  Alcotest.(check (option string)) "no header error" None p.Journal.error;
  Alcotest.(check bool) "truncated flagged" true p.Journal.truncated;
  Alcotest.(check int) "no corrupt frames" 0 p.Journal.corrupt_frames;
  Alcotest.(check bool) "prefix intact" true
    (p.Journal.events
    = [ List.nth all_kinds_events 0; List.nth all_kinds_events 1;
        List.nth all_kinds_events 2 ])

let test_partial_corrupt_frame () =
  (* Flip one payload byte of the 2nd frame without fixing its CRC:
     that frame is skipped, every other event survives. *)
  let b = Bytes.of_string blob in
  let off = frame_offset 1 + 3 in
  Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor 0xff);
  let p = Journal.decode_partial (Bytes.to_string b) in
  Alcotest.(check (option string)) "no header error" None p.Journal.error;
  Alcotest.(check bool) "not truncated" false p.Journal.truncated;
  Alcotest.(check int) "one corrupt frame" 1 p.Journal.corrupt_frames;
  Alcotest.(check int) "the rest decodes" (List.length all_kinds_events - 1)
    (List.length p.Journal.events);
  (* Strict decode refuses the same bytes. *)
  Alcotest.(check bool) "strict decode errors" true
    (match Journal.decode (Bytes.to_string b) with Error _ -> true | Ok _ -> false)

let test_partial_bad_header () =
  let p = Journal.decode_partial ("XXXX" ^ String.sub blob 4 (String.length blob - 4)) in
  Alcotest.(check bool) "header error reported" true (p.Journal.error <> None);
  Alcotest.(check (list reject)) "no events salvaged" [] p.Journal.events

(* --- deterministic sessions --------------------------------------------- *)

(* The recorder only listens when observability is on — exactly the
   state the CLIs' --journal flag sets up. *)
let () = Obs.enable ()

(* A tiny multi-scene clip: sessions run the whole pipeline (codec,
   FEC, NACK loop, playback), so keep the frames small and few. *)
let clip =
  let scene level =
    Video.Profile.scene ~seconds:0.75 ~noise_sigma:0. (Video.Profile.Flat level)
  in
  Video.Clip_gen.render ~width:64 ~height:48 ~fps:8.
    {
      Video.Profile.name = "journal-test";
      seed = 5;
      scenes = [ scene 40; scene 200; scene 60; scene 180 ];
    }

let run_session ~seed =
  let config =
    {
      (Streaming.Session.default_config ~device) with
      Streaming.Session.fault = Some (Streaming.Fault.bernoulli ~rate:0.3);
      nack_budget_s = 0.02;
      seed;
    }
  in
  match Streaming.Session.run config clip with
  | Ok report -> report
  | Error msg -> Alcotest.fail msg

let journaled ~seed =
  let j = Journal.create () in
  Journal.install j;
  Fun.protect ~finally:Journal.uninstall @@ fun () ->
  let report = run_session ~seed in
  (report, Journal.events j)

let test_journaling_is_behaviour_neutral () =
  (* The acceptance invariant: with the recorder off the session
     report is byte-identical to a journaled run's. *)
  let pp r = Format.asprintf "%a" Streaming.Session.pp_report r in
  let plain = pp (run_session ~seed:1) in
  let recorded, events = journaled ~seed:1 in
  Alcotest.(check bool) "the journal saw the session" true (events <> []);
  Alcotest.(check string) "report byte-identical with journaling on" plain
    (pp recorded)

let test_same_seed_same_journal () =
  let _, a = journaled ~seed:1 in
  let _, b = journaled ~seed:1 in
  Alcotest.(check bool) "byte-identical journals" true
    (String.equal (Journal.encode a) (Journal.encode b));
  Alcotest.(check bool) "diff finds nothing" true (Explain.diff a b = None)

let test_diff_localises_fault_seed () =
  (* Two runs differing ONLY in the fault seed: everything up to the
     first fault-injector pass is provably common, so the first
     divergent decision must be a transmit-phase event with different
     loss, and diff must pinpoint it. *)
  let _, a = journaled ~seed:1 in
  let _, b = journaled ~seed:2 in
  match Explain.diff a b with
  | None -> Alcotest.fail "seeds 1 and 2 produced identical journals"
  | Some d ->
    Alcotest.(check bool) "prefix is common" true
      (d.Explain.index <= min (List.length a) (List.length b));
    let phase_of = function
      | Some e -> Journal.phase e.Journal.kind
      | None -> -1
    in
    Alcotest.(check int) "divergence is a transmit-phase decision" 2
      (phase_of d.Explain.left);
    Alcotest.(check int) "on both sides" 2 (phase_of d.Explain.right);
    (* Everything before the divergence is equal on both sides. *)
    let prefix l = List.filteri (fun i _ -> i < d.Explain.index) l in
    Alcotest.(check bool) "events before it agree" true (prefix a = prefix b)

(* Per-record degradation triggers. The prepared payload carries one
   record with a flipped register byte, so its bytes can arrive and
   still fail the CRC; the loss seeds are chosen by pushing the packets
   through the channel and FEC directly, so each expected trigger
   comes from the bytes that reached the client, not from the session
   under test. No NACK loop: what the channel drops stays dropped. *)
let trigger_config seed =
  {
    (Streaming.Session.default_config ~device) with
    Streaming.Session.fault = Some (Streaming.Fault.bernoulli ~rate:0.3);
    nack_budget_s = 0.;
    seed;
  }

let test_degradation_triggers () =
  let rs = Annotation.Encoding.record_size in
  let prep = Streaming.Session.prepare_input (trigger_config 1) clip in
  let payload = prep.Streaming.Session.annotation_payload in
  let count =
    match Annotation.Encoding.decode payload with
    | Ok t -> Array.length t.Annotation.Track.entries
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "several records" true (count >= 3);
  let header_len = String.length payload - (count * rs) in
  let flipped = 1 in
  let damaged = Bytes.of_string payload in
  let at = header_len + (flipped * rs) + 6 in
  Bytes.set_uint8 damaged at (Bytes.get_uint8 damaged at lxor 0x5a);
  let damaged = Bytes.to_string damaged in
  let protected = Streaming.Fec.protect ~packet_size:24 ~group_size:3 damaged in
  let prepared =
    { prep with Streaming.Session.annotation_payload = damaged; protected }
  in
  (* What the client holds after the channel, byte by byte. *)
  let expected seed =
    let fault = Streaming.Fault.bernoulli ~rate:0.3 in
    let arrival =
      Streaming.Fault.apply fault ~seed protected.Streaming.Fec.packets
    in
    let ok = (Streaming.Fec.recover_detail protected ~present:arrival).byte_ok in
    let span_ok first len =
      List.for_all (fun b -> ok.(b)) (List.init len (fun k -> first + k))
    in
    if not (span_ok 0 header_len) then [ (-1, Journal.Header_lost) ]
    else
      List.filter_map
        (fun i ->
          if not (span_ok (header_len + (i * rs)) rs) then
            Some (i, Journal.Record_lost)
          else if i = flipped then Some (i, Journal.Record_corrupt)
          else None)
        (List.init count Fun.id)
  in
  let find p =
    match List.find_opt (fun s -> p (expected s)) (List.init 500 succ) with
    | Some s -> s
    | None -> Alcotest.fail "no seed in 1..500 gives the wanted loss"
  in
  let records_seed =
    find (fun e ->
        List.mem (flipped, Journal.Record_corrupt) e
        && List.exists (fun (_, t) -> t = Journal.Record_lost) e)
  in
  let header_seed = find (fun e -> e = [ (-1, Journal.Header_lost) ]) in
  let journaled_triggers seed =
    let j = Journal.create () in
    Journal.install j;
    Fun.protect ~finally:Journal.uninstall @@ fun () ->
    let m = Streaming.Session.create ~prepared (trigger_config seed) clip in
    while Streaming.Session.step m = `Running do () done;
    List.filter_map
      (fun e ->
        match e.Journal.kind with
        | Journal.Degradation { index; trigger; _ } -> Some (index, trigger)
        | _ -> None)
      (Journal.events j)
  in
  let trigger_name = function
    | Journal.Record_lost -> "lost"
    | Journal.Record_corrupt -> "corrupt"
    | Journal.Header_lost -> "header lost"
  in
  let triggers =
    Alcotest.(list (pair int (of_pp (fun ppf t -> Fmt.string ppf (trigger_name t)))))
  in
  Alcotest.check triggers "lost and corrupt records" (expected records_seed)
    (journaled_triggers records_seed);
  Alcotest.check triggers "lost header" (expected header_seed)
    (journaled_triggers header_seed)

(* Hand-built CRC-valid payloads that break a rule no CRC checks,
   injected as the prepared stream of a lossless session: the client
   must journal the broken record (or header) and play on. *)
let test_hostile_streams_degrade () =
  let config = Streaming.Session.default_config ~device in
  let prep = Streaming.Session.prepare_input config clip in
  let frames = prep.Streaming.Session.track.Annotation.Track.total_frames in
  List.iter
    (fun (name, payload, trigger) ->
      let protected = Streaming.Fec.protect ~packet_size:24 ~group_size:3 payload in
      let prepared =
        { prep with Streaming.Session.annotation_payload = payload; protected }
      in
      let j = Journal.create () in
      Journal.install j;
      Fun.protect ~finally:Journal.uninstall @@ fun () ->
      let m = Streaming.Session.create ~prepared config clip in
      while Streaming.Session.step m = `Running do () done;
      (match Streaming.Session.result m with
      | Some (Ok _) -> ()
      | Some (Error e) -> Alcotest.fail (name ^ ": " ^ e)
      | None -> Alcotest.fail (name ^ ": no result"));
      Alcotest.(check bool)
        (name ^ " journals its degradation") true
        (List.exists
           (fun e ->
             match e.Journal.kind with
             | Journal.Degradation d -> d.trigger = trigger
             | _ -> false)
           (Journal.events j)))
    (List.map2
       (fun (name, payload) trigger -> (name, payload, trigger))
       (Raw_stream.hostile frames)
       [ Journal.Record_corrupt; Journal.Record_corrupt; Journal.Header_lost ])

(* --- offline verifier corpus (V4xx) -------------------------------------- *)

let codes ds = List.sort_uniq compare (List.map (fun d -> d.Diagnostic.code) ds)

let check_codes what expected ds =
  Alcotest.(check (list string)) what expected (codes ds)

let check = Artifact.check_journal ~file:"t.journal"

let set_u32 b off v =
  for k = 0 to 3 do
    Bytes.set_uint8 b (off + k) ((v lsr (8 * k)) land 0xff)
  done

let test_pristine () = check_codes "pristine journal" [] (check blob)

let test_v401_bad_magic () =
  check_codes "V401" [ "V401" ]
    (check ("XXXX" ^ String.sub blob 4 (String.length blob - 4)))

let test_v402_bad_version () =
  let b = Bytes.of_string blob in
  Bytes.set_uint8 b 4 9;
  set_u32 b 5 (Wire.Binary.crc32 (String.sub (Bytes.to_string b) 0 5));
  check_codes "V402" [ "V402" ] (check (Bytes.to_string b))

let test_v403_truncated () =
  check_codes "V403 mid-header" [ "V403" ] (check (String.sub blob 0 7));
  check_codes "V403 mid-frame" [ "V403" ]
    (check (String.sub blob 0 (frame_offset 2 + 3)))

let test_v404_header_crc () =
  let b = Bytes.of_string blob in
  Bytes.set_uint8 b 5 (Bytes.get_uint8 b 5 lxor 0xff);
  check_codes "V404" [ "V404" ] (check (Bytes.to_string b))

let test_v405_frame_crc () =
  (* One flipped payload byte: V405 on that frame, and the walk
     continues — a second tampered frame is reported too. *)
  let b = Bytes.of_string blob in
  let flip n =
    let off = frame_offset n + 2 in
    Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor 0x01)
  in
  flip 1;
  flip 4;
  let ds = check (Bytes.to_string b) in
  check_codes "V405" [ "V405" ] ds;
  Alcotest.(check int) "walk continues past the first" 2 (List.length ds)

let test_v406_backwards_timestamp () =
  (* Swap the two scene decisions: both frames stay CRC-valid, but
     phase-1 time now runs backwards within one annotate pass. *)
  let f1 = frame_offset 1 and f2 = frame_offset 2 and f3 = frame_offset 3 in
  let swapped =
    String.sub blob 0 f1
    ^ String.sub blob f2 (f3 - f2)
    ^ String.sub blob f1 (f2 - f1)
    ^ String.sub blob f3 (String.length blob - f3)
  in
  check_codes "V406" [ "V406" ] (check swapped)

let test_backwards_stamp_fails_decode () =
  (* Three CRC-valid events whose second deadline miss runs backwards:
     the strict decoder applies the verifier's clock rule, the salvage
     decoder keeps all three. *)
  let e t_us frame = { Journal.t_us; kind = Journal.Deadline_miss { frame; over_us = 10 } } in
  let events = [ e 1_000 1; e 500 2; e 2_000 3 ] in
  let data = Journal.encode events in
  check_codes "V406" [ "V406" ] (check data);
  Alcotest.(check (result reject string))
    "decode"
    (Error "timestamp 500us runs backwards within phase 3 (last 1000us)")
    (Journal.decode data);
  let p = Journal.decode_partial data in
  Alcotest.(check bool) "salvage keeps them" true
    (p.Journal.events = events && p.Journal.corrupt_frames = 0)

let test_v406_allows_stage_reruns () =
  (* A quality sweep annotates several times per process: phase-1 time
     restarting after an intervening phase is legitimate. *)
  let e t_us kind = { Journal.t_us; kind } in
  let decision scene t_us =
    e t_us
      (Journal.Scene_decision
         {
           scene;
           first_frame = scene * 6;
           frame_count = 6;
           register = 80;
           effective_max = 100;
           compensation_fp = 8192;
           clipped_permille = 50;
           quality_permille = 100;
           candidates = [ 80 ];
         })
  in
  let rerun =
    [
      decision 0 0;
      decision 1 750_000;
      e 0 (Journal.Dvfs_choice { policy = "annotated"; mean_mhz = 100; misses = 0 });
      decision 0 0;
      decision 1 750_000;
    ]
  in
  check_codes "stage reruns are clean" [] (check (Journal.encode rerun));
  Alcotest.(check bool) "and decode" true
    (Journal.decode (Journal.encode rerun) = Ok rerun)

let test_v407_unknown_tag () =
  (* Hand-frame a payload with kind tag 99 and a valid CRC: framing is
     fine, the schema check must object. *)
  let payload = "\x63\x00" in
  let frame = Bytes.create (1 + String.length payload + 4) in
  Bytes.set_uint8 frame 0 (String.length payload);
  Bytes.blit_string payload 0 frame 1 (String.length payload);
  set_u32 frame (1 + String.length payload) (Wire.Binary.crc32 payload);
  check_codes "V407" [ "V407" ]
    (check (String.sub blob 0 9 ^ Bytes.to_string frame))

let test_v408_implausible_length () =
  (* A 3-byte varint declaring a 2MB frame: implausible, walk stops. *)
  let huge = "\x80\x80\x80\x01" in
  check_codes "V408" [ "V408" ] (check (String.sub blob 0 9 ^ huge))

(* A frame length of nine varint bytes whose last still continues,
   with nothing after it: the cap on the length is hit before the end
   of the file, so the verifier and the strict decoder both call it a
   varint too long, not a cut. *)
let test_v408_varint_too_long_at_eof () =
  let data = String.sub blob 0 9 ^ String.make 9 '\x80' in
  let ds = check data in
  check_codes "V408" [ "V408" ] ds;
  Alcotest.(check bool)
    "message" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.Diagnostic.message = "frame 0 length: varint longer than 8 bytes at byte 18")
       ds);
  Alcotest.(check (result reject string))
    "decode" (Error "varint too long") (Journal.decode data);
  Alcotest.(check bool) "salvage truncated" true (Journal.decode_partial data).truncated

let test_inspect_never_rejects_what_verify_accepts () =
  (* The salvage decoder must accept at least everything the strict
     verifier passes: a session journal straight off the recorder. *)
  let _, events = journaled ~seed:3 in
  let bytes = Journal.encode events in
  check_codes "verifier accepts the session journal" [] (check bytes);
  let p = Journal.decode_partial bytes in
  Alcotest.(check bool) "salvage decoder agrees" true
    (p.Journal.error = None && p.Journal.corrupt_frames = 0
    && (not p.Journal.truncated)
    && p.Journal.events = events)

(* --- verifier/decoder agreement ------------------------------------------ *)

(* A random run of events (timestamps drawn small, so some runs go
   backwards), encoded, then damaged: a few byte flips, the frame CRCs
   and sometimes the header CRC recomputed at their pristine offsets,
   and an optional cut. *)
let mutated_journal rng =
  let int n = Random.State.int rng n in
  let kinds = Array.of_list all_kinds_events in
  let events =
    List.init (int 12) (fun _ ->
        { (kinds.(int (Array.length kinds))) with Journal.t_us = int 5000 })
  in
  let pristine = Journal.encode events in
  let b = Bytes.of_string pristine in
  for _ = 1 to int 4 do
    let off = int (Bytes.length b) in
    Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor (1 + int 255))
  done;
  let crc ~pos ~len = Wire.Binary.crc32 (Bytes.sub_string b pos len) in
  if int 4 = 0 then set_u32 b 5 (crc ~pos:0 ~len:5);
  if int 2 = 0 then begin
    (* Every test payload is short enough for a 1-byte length. *)
    let pos = ref 9 in
    while !pos < String.length pristine do
      let len = Char.code pristine.[!pos] in
      set_u32 b (!pos + 1 + len) (crc ~pos:(!pos + 1) ~len);
      pos := !pos + 1 + len + 4
    done
  end;
  let s = Bytes.to_string b in
  let s = if int 3 = 0 then String.sub s 0 (int (String.length s)) else s in
  (String.sub pristine 0 9, s)

let count code ds =
  List.length (List.filter (fun d -> d.Diagnostic.code = code) ds)

let prop_verifier_agrees_with_decoders =
  QCheck2.Test.make ~count:5000
    ~name:"verifier findings match the strict and salvage decoders"
    ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let header, data = mutated_journal (Random.State.make [| seed |]) in
      let ds = check data in
      let p = Journal.decode_partial data in
      let valid_header =
        String.length data >= 9 && String.sub data 0 9 = header
      in
      let clean_decode =
        match Journal.decode data with
        | Error _ -> ds <> []
        | Ok events ->
          ds = []
          && p.Journal.events = events
          && p.Journal.corrupt_frames = 0
          && not p.Journal.truncated
      in
      clean_decode
      && (p.Journal.error = None) = valid_header
      && p.Journal.corrupt_frames = count "V405" ds + count "V407" ds
      && p.Journal.truncated
         = (valid_header && count "V403" ds + count "V408" ds > 0))

let () =
  Alcotest.run "journal"
    [
      ( "wire",
        [
          Alcotest.test_case "all kinds round-trip" `Quick test_round_trip;
          Alcotest.test_case "recorder round-trip" `Quick test_recorder_round_trip;
        ] );
      ( "salvage",
        [
          Alcotest.test_case "truncation keeps the prefix" `Quick test_partial_truncation;
          Alcotest.test_case "corrupt frame is skipped" `Quick test_partial_corrupt_frame;
          Alcotest.test_case "bad header salvages nothing" `Quick test_partial_bad_header;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "behaviour neutral" `Quick test_journaling_is_behaviour_neutral;
          Alcotest.test_case "same seed, same journal" `Quick test_same_seed_same_journal;
          Alcotest.test_case "diff localises the seed change" `Quick
            test_diff_localises_fault_seed;
          Alcotest.test_case "degradation triggers" `Quick test_degradation_triggers;
          Alcotest.test_case "hostile streams degrade" `Quick
            test_hostile_streams_degrade;
        ] );
      ( "verifier corpus",
        [
          Alcotest.test_case "pristine" `Quick test_pristine;
          Alcotest.test_case "bad magic" `Quick test_v401_bad_magic;
          Alcotest.test_case "bad version" `Quick test_v402_bad_version;
          Alcotest.test_case "truncated" `Quick test_v403_truncated;
          Alcotest.test_case "header crc" `Quick test_v404_header_crc;
          Alcotest.test_case "frame crc" `Quick test_v405_frame_crc;
          Alcotest.test_case "backwards timestamp" `Quick test_v406_backwards_timestamp;
          Alcotest.test_case "stage reruns allowed" `Quick test_v406_allows_stage_reruns;
          Alcotest.test_case "backwards stamp fails decode" `Quick
            test_backwards_stamp_fails_decode;
          Alcotest.test_case "unknown tag" `Quick test_v407_unknown_tag;
          Alcotest.test_case "implausible length" `Quick test_v408_implausible_length;
          Alcotest.test_case "varint too long at end of file" `Quick
            test_v408_varint_too_long_at_eof;
          Alcotest.test_case "verify/salvage agree" `Quick
            test_inspect_never_rejects_what_verify_accepts;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
            prop_verifier_agrees_with_decoders;
        ] );
    ]

(* Chaos tests for the fault-injection layer and the hardened
   annotation path: fault models, partial FEC recovery, CRC-protected
   records, the NACK loop, and per-scene degradation in the session. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let flt = Alcotest.float 1e-9

let device = Display.Device.ipaq_h5555

(* Six crisp scenes alternating dark and bright, so the annotation
   track has several entries with genuinely different registers. *)
let six_scene_clip () =
  let scene level =
    Video.Profile.scene ~seconds:0.75 ~noise_sigma:0. (Video.Profile.Flat level)
  in
  let profile =
    {
      Video.Profile.name = "chaos-test";
      seed = 11;
      scenes = [ scene 40; scene 200; scene 60; scene 180; scene 50; scene 220 ];
    }
  in
  Video.Clip_gen.render ~width:48 ~height:32 ~fps:8. profile

let run_session config clip =
  match Streaming.Session.run config clip with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* --- fault profiles ------------------------------------------------------ *)

let test_profile_parse () =
  (match Streaming.Fault.parse "model = bernoulli\nrate = 0.25\n" with
  | Error e -> Alcotest.fail e
  | Ok f -> (
    match f.Streaming.Fault.loss with
    | Streaming.Fault.Bernoulli r -> check flt "rate" 0.25 r
    | _ -> Alcotest.fail "expected bernoulli"));
  match
    Streaming.Fault.parse
      "# comment\nmodel = gilbert\nmean_loss = 0.1\nburst_length = 4\n\
       corrupt = 0.001\nreorder = 0.02\njitter_ms = 5\ncollapse_at = 0.5\n\
       collapse_factor = 0.25  # tail comment\n"
  with
  | Error e -> Alcotest.fail e
  | Ok f ->
    (match f.Streaming.Fault.loss with
    | Streaming.Fault.Gilbert { p_enter_bad; p_exit_bad; _ } ->
      check flt "exit = 1/burst" 0.25 p_exit_bad;
      (* enter = exit * pi / (1 - pi) with pi = 0.1 *)
      check (Alcotest.float 1e-6) "enter" (0.25 *. 0.1 /. 0.9) p_enter_bad
    | _ -> Alcotest.fail "expected gilbert");
    check flt "corrupt" 0.001 f.Streaming.Fault.corrupt_rate;
    check flt "reorder" 0.02 f.Streaming.Fault.reorder_rate;
    check flt "jitter" 0.005 f.Streaming.Fault.jitter_s;
    (match f.Streaming.Fault.collapse with
    | Some c ->
      check flt "collapse at" 0.5 c.Streaming.Fault.at_fraction;
      check flt "collapse factor" 0.25 c.Streaming.Fault.factor
    | None -> Alcotest.fail "expected collapse");
    check flt "factor before" 1.
      (Streaming.Fault.bandwidth_factor f ~progress:0.3);
    check flt "factor after" 0.25
      (Streaming.Fault.bandwidth_factor f ~progress:0.7)

let test_profile_rejects_garbage () =
  let bad text = check bool text true (Result.is_error (Streaming.Fault.parse text)) in
  bad "model = warp\n";
  bad "model = bernoulli\n";               (* rate missing *)
  bad "model = gilbert\nmean_loss = 0.1\n" (* burst missing *);
  bad "model = bernoulli\nrate = 1.5\n";
  bad "rate = 0.1\n";                      (* loss params without a model *)
  bad "model = gilbert\nmean_loss = 0.1\nburst_length = 0.5\n";
  bad "collapse_at = 0.5\n";               (* factor missing *)
  bad "model=bernoulli\nrate=0.1\ncollapse_at=0.5\ncollapse_factor=0\n";
  bad "frobnicate = 1\n";
  bad "just some words\n";
  (* load goes through the same parser; exercise the file plumbing. *)
  let path = Filename.temp_file "fault" ".fault" in
  let oc = open_out path in
  output_string oc "model = gilbert\nmean_loss = 0.10\nburst_length = 4\n";
  close_out oc;
  check bool "profile file loads" true
    (Result.is_ok (Streaming.Fault.load ~path));
  Sys.remove path;
  check bool "missing file is an error" true
    (Result.is_error (Streaming.Fault.load ~path:"/nonexistent/x.fault"))

(* The key = value grammar is shared by all four profile formats; its
   messages, and each format's bad-value message, are pinned here. *)
let test_profile_grammar_messages () =
  let msg = function Ok _ -> "ok" | Error m -> m in
  let parsers =
    [
      ( "fault",
        (fun t -> msg (Streaming.Fault.parse t)),
        fun path -> msg (Streaming.Fault.load ~path) );
      ( "resilience",
        (fun t -> msg (Resilience.Profile.parse t)),
        fun path -> msg (Resilience.Profile.load ~path) );
      ( "load",
        (fun t -> msg (Fleet.Load.parse t)),
        fun path -> msg (Fleet.Load.load ~path) );
      ( "device",
        (fun t -> msg (Display.Device_config.of_string t)),
        fun path -> msg (Display.Device_config.load ~path) );
    ]
  in
  let cases =
    [
      ("fault", "# c\n\nno equals\n", "line 3: expected key = value");
      ("resilience", "# c\n\nno equals\n", "line 3: expected key = value");
      ("load", "# c\n\nno equals\n", "line 3: expected key = value");
      ("device", "# c\n\nno equals\n", "line 3: expected key = value");
      ("fault", "frob = 1 # c\n", "line 1: unknown key \"frob\"");
      ("resilience", "frob = 1 # c\n", "line 1: unknown key \"frob\"");
      ("load", "frob = 1 # c\n", "line 1: unknown key \"frob\"");
      ("device", "frob = 1 # c\n", "line 1: unknown key \"frob\"");
      ("fault", "rate = x\n", "rate: bad number \"x\"");
      ("resilience", "retry_budget_s = x\n", "retry_budget_s: bad number \"x\"");
      ("load", "rate_per_s = x\n", "rate_per_s: bad number \"x\"");
      ("device", "lcd_mw = x\n", "line 1: expected a non-negative number");
      ("resilience", "retry_max_rounds = 2.5\n",
        "retry_max_rounds: bad integer \"2.5\"");
      ("load", "sessions = 1.5\n", "sessions: bad integer \"1.5\"");
    ]
  in
  List.iter
    (fun (name, text, expected) ->
      let _, parse, _ = List.find (fun (n, _, _) -> n = name) parsers in
      check Alcotest.string (name ^ " " ^ String.escaped text) expected (parse text))
    cases;
  List.iter
    (fun (name, _, load) ->
      check Alcotest.string (name ^ " missing file")
        "/nonexistent/x.profile: No such file or directory"
        (load "/nonexistent/x.profile"))
    parsers

let test_loss_mask_edges () =
  let none = Streaming.Fault.none in
  check bool "no loss" true
    (Array.for_all not (Streaming.Fault.loss_mask none ~seed:1 ~n:500));
  let all = Streaming.Fault.bernoulli ~rate:1. in
  check bool "total loss" true
    (Array.for_all (fun b -> b) (Streaming.Fault.loss_mask all ~seed:1 ~n:500));
  check int "empty train" 0 (Array.length (Streaming.Fault.loss_mask all ~seed:1 ~n:0))

let test_gilbert_statistics () =
  let f = Streaming.Fault.gilbert ~mean_loss:0.1 ~burst_length:4. () in
  let n = 40_000 in
  let mask = Streaming.Fault.loss_mask f ~seed:7 ~n in
  let losses = Array.fold_left (fun a b -> if b then a + 1 else a) 0 mask in
  let mean = float_of_int losses /. float_of_int n in
  check bool "mean loss near 10%" true (mean > 0.07 && mean < 0.13);
  (* Burstiness: mean run length of consecutive losses well above the
     i.i.d. value (1 / (1 - rate) ~ 1.11 at 10%). *)
  let runs = ref 0 and prev = ref false in
  Array.iter
    (fun b ->
      if b && not !prev then incr runs;
      prev := b)
    mask;
  let mean_burst = float_of_int losses /. float_of_int (max 1 !runs) in
  check bool "bursty" true (mean_burst > 2.);
  (* Determinism: same seed, same mask; different seed, different mask. *)
  check bool "deterministic" true (mask = Streaming.Fault.loss_mask f ~seed:7 ~n);
  check bool "seed-sensitive" true (mask <> Streaming.Fault.loss_mask f ~seed:8 ~n)

let test_apply_corruption () =
  let f = { Streaming.Fault.none with Streaming.Fault.corrupt_rate = 1. } in
  let packets = [| "hello"; "world" |] in
  let out = Streaming.Fault.apply f ~seed:3 packets in
  Array.iteri
    (fun i p ->
      match p with
      | None -> Alcotest.fail "corruption must not drop packets"
      | Some s ->
        check int "length preserved" (String.length packets.(i)) (String.length s);
        check bool "every byte flipped" true
          (String.to_seq s |> Seq.zip (String.to_seq packets.(i))
          |> Seq.for_all (fun (a, b) -> a <> b)))
    out;
  (* Zero corruption shares the input strings untouched. *)
  let clean = Streaming.Fault.apply Streaming.Fault.none ~seed:3 packets in
  check bool "clean passthrough" true (clean = [| Some "hello"; Some "world" |]);
  (* Reorder displaces (drops) some deliveries without corrupting others. *)
  let r = { Streaming.Fault.none with Streaming.Fault.reorder_rate = 0.5 } in
  let out = Streaming.Fault.apply r ~seed:5 (Array.make 200 "x") in
  let dropped = Array.fold_left (fun a p -> if p = None then a + 1 else a) 0 out in
  check bool "reorder drops some" true (dropped > 50 && dropped < 150)

let test_delay_and_collapse () =
  let f = { Streaming.Fault.none with Streaming.Fault.jitter_s = 0.01 } in
  let d = Streaming.Fault.delay_s f ~seed:1 ~index:42 in
  check bool "jitter in range" true (d >= 0. && d < 0.01);
  check flt "random access deterministic" d
    (Streaming.Fault.delay_s f ~seed:1 ~index:42);
  check flt "no jitter" 0. (Streaming.Fault.delay_s Streaming.Fault.none ~seed:1 ~index:0);
  check flt "no collapse" 1.
    (Streaming.Fault.bandwidth_factor Streaming.Fault.none ~progress:0.9)

(* --- FEC: recover_detail and the exhaustive single/double loss grid ----- *)

let random_payload rng n =
  String.init n (fun _ -> Char.chr (Image.Prng.int rng 256))

(* Satellite: for every group layout, every single-loss position
   recovers byte-identically and every double-loss-in-group fails,
   empty payload included. *)
let test_fec_loss_grid () =
  let rng = Image.Prng.create ~seed:99 in
  List.iter
    (fun packet_size ->
      List.iter
        (fun group_size ->
          List.iter
            (fun len ->
              let payload = random_payload rng len in
              let t = Streaming.Fec.protect ~packet_size ~group_size payload in
              let n = Array.length t.Streaming.Fec.packets in
              let all_present () = Array.map Option.some t.Streaming.Fec.packets in
              (* Nothing lost. *)
              (match Streaming.Fec.recover t ~present:(all_present ()) with
              | Ok p -> check bool "intact" true (p = payload)
              | Error e -> Alcotest.fail e);
              (* Every single loss (data or parity) recovers. *)
              for i = 0 to n - 1 do
                let present = all_present () in
                present.(i) <- None;
                match Streaming.Fec.recover t ~present with
                | Ok p ->
                  check bool
                    (Printf.sprintf "single loss %d (ps %d gs %d len %d)" i
                       packet_size group_size len)
                    true (p = payload)
                | Error e -> Alcotest.fail e
              done;
              (* Every double loss inside one group fails. *)
              let data = t.Streaming.Fec.data_packets in
              for i = 0 to data - 1 do
                for j = i + 1 to data - 1 do
                  if i / group_size = j / group_size then begin
                    let present = all_present () in
                    present.(i) <- None;
                    present.(j) <- None;
                    check bool
                      (Printf.sprintf "double loss %d %d errors" i j)
                      true
                      (Result.is_error (Streaming.Fec.recover t ~present));
                    (* recover_detail salvages everything else. *)
                    let r = Streaming.Fec.recover_detail t ~present in
                    check bool "failed group listed" true
                      (r.Streaming.Fec.failed_groups = [ i / group_size ]);
                    (* byte_ok distrusts exactly the unrecoverable
                       packets; delivered packets in the failed group
                       are still intact data. *)
                    String.iteri
                      (fun b ok_c ->
                        let pkt = b / packet_size in
                        let ok = r.Streaming.Fec.byte_ok.(b) in
                        check bool "byte_ok marks lost packets"
                          (pkt <> i && pkt <> j) ok;
                        if ok then
                          check bool "intact bytes identical" true
                            (ok_c = payload.[b])
                        else
                          check bool "lost bytes zero-filled" true
                            (ok_c = '\000'))
                      r.Streaming.Fec.payload
                  end
                done
              done)
            [ 0; 1; 7; 24; 25 ])
        [ 1; 2; 3 ])
    [ 1; 3; 8 ]

let test_fec_recover_detail_clean () =
  let payload = random_payload (Image.Prng.create ~seed:5) 100 in
  let t = Streaming.Fec.protect ~packet_size:24 ~group_size:3 payload in
  let r =
    Streaming.Fec.recover_detail t
      ~present:(Array.map Option.some t.Streaming.Fec.packets)
  in
  check bool "payload identical" true (r.Streaming.Fec.payload = payload);
  check bool "all bytes ok" true (Array.for_all (fun b -> b) r.Streaming.Fec.byte_ok);
  check bool "no failed groups" true (r.Streaming.Fec.failed_groups = []);
  check int "nothing repaired" 0 r.Streaming.Fec.repaired_packets;
  (* A single loss is repaired and counted. *)
  let present = Array.map Option.some t.Streaming.Fec.packets in
  present.(1) <- None;
  let r = Streaming.Fec.recover_detail t ~present in
  check bool "repaired payload identical" true (r.Streaming.Fec.payload = payload);
  check int "one repair" 1 r.Streaming.Fec.repaired_packets

(* --- Encoding v2: CRC records and partial decode ------------------------ *)

let sample_track () =
  let entry ~first ~count ~register ~eff =
    {
      Annotation.Track.first_frame = first;
      frame_count = count;
      register;
      compensation = 255. /. float_of_int (max 1 eff);
      effective_max = eff;
    }
  in
  Annotation.Track.make ~clip_name:"chaos" ~device_name:"ipaq_h5555"
    ~quality:Annotation.Quality_level.Loss_10 ~fps:8. ~total_frames:100
    [|
      (* Adjacent entries must differ or run-merging fuses them. *)
      entry ~first:0 ~count:20 ~register:120 ~eff:150;
      entry ~first:20 ~count:20 ~register:255 ~eff:255;
      entry ~first:40 ~count:20 ~register:120 ~eff:150;
      entry ~first:60 ~count:20 ~register:90 ~eff:120;
      entry ~first:80 ~count:20 ~register:200 ~eff:230;
    |]

let test_crc32_vector () =
  (* The classic IEEE 802.3 check value. *)
  check int "crc32(123456789)" 0xCBF43926 (Wire.Binary.crc32 "123456789")

let test_v1_rejected () =
  let v1 = Wire_v1.blob () in
  check int "v1 marker" 1 (Char.code v1.[4]);
  check bool "decode rejects v1" true
    (Result.is_error (Annotation.Encoding.decode v1));
  check bool "decode_partial rejects v1" true
    (Result.is_error (Annotation.Encoding.decode_partial v1));
  check int "current marker" 2
    (Char.code (Annotation.Encoding.encode (sample_track ())).[4])

let test_decode_partial_classification () =
  let t = sample_track () in
  let data = Annotation.Encoding.encode t in
  let n = String.length data in
  let record_size = 15 in
  let records_start = n - (5 * record_size) in
  (* Intact payload: every record survives. *)
  (match Annotation.Encoding.decode_partial data with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check bool "all intact" true
      (Array.for_all
         (function Annotation.Encoding.Intact _ -> true | _ -> false)
         p.Annotation.Encoding.records);
    check int "no corrupt" 0 p.Annotation.Encoding.corrupt_records;
    check int "no missing" 0 p.Annotation.Encoding.missing_records);
  (* Flip a byte inside record 2: CRC catches it, everything else
     survives. *)
  let mutated = Bytes.of_string data in
  let pos = records_start + (2 * record_size) + 3 in
  Bytes.set mutated pos (Char.chr (Char.code (Bytes.get mutated pos) lxor 0x40));
  (match Annotation.Encoding.decode_partial (Bytes.to_string mutated) with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check int "one corrupt" 1 p.Annotation.Encoding.corrupt_records;
    check bool "record 2 corrupt" true
      (p.Annotation.Encoding.records.(2) = Annotation.Encoding.Corrupt);
    check bool "record 1 kept" true
      (match p.Annotation.Encoding.records.(1) with
      | Annotation.Encoding.Intact _ -> true
      | _ -> false));
  (* Mark record 3's bytes as lost in transit: missing, not corrupt. *)
  let byte_ok = Array.make n true in
  Array.fill byte_ok (records_start + (3 * record_size)) record_size false;
  (match Annotation.Encoding.decode_partial ~byte_ok data with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check int "one missing" 1 p.Annotation.Encoding.missing_records;
    check bool "record 3 lost" true
      (p.Annotation.Encoding.records.(3) = Annotation.Encoding.Lost));
  (* A lost header is fatal. *)
  let byte_ok = Array.make n true in
  byte_ok.(2) <- false;
  check bool "lost header is an error" true
    (Result.is_error (Annotation.Encoding.decode_partial ~byte_ok data));
  (* Strict decode refuses any record corruption outright. *)
  check bool "strict decode rejects mutation" true
    (Result.is_error (Annotation.Encoding.decode (Bytes.to_string mutated)))

(* --- the degradation ladder on partial decodes -------------------------- *)

let partial_of_track ?(drop = []) t =
  let t = Annotation.Track.merge_runs t in
  {
    Annotation.Encoding.clip_name = t.Annotation.Track.clip_name;
    device_name = t.Annotation.Track.device_name;
    quality = t.Annotation.Track.quality;
    fps = t.Annotation.Track.fps;
    total_frames = t.Annotation.Track.total_frames;
    records =
      Array.mapi
        (fun i e ->
          if List.mem i drop then Annotation.Encoding.Lost
          else Annotation.Encoding.Intact e)
        t.Annotation.Track.entries;
    corrupt_records = 0;
    missing_records = List.length drop;
  }

module D = Resilience.Degrade

let full_ladder () = D.create ~steps:[ D.Fresh; D.Full_backlight ] ()

let clamp_ladder () =
  D.create ~steps:[ D.Fresh; D.Neighbour_clamp; D.Full_backlight ] ()

let test_patch_full_backlight () =
  let t = sample_track () in
  let ladder = full_ladder () in
  let patched, degraded =
    Streaming.Session.patch_track ladder (partial_of_track ~drop:[ 1; 3 ] t)
  in
  check int "two degraded" 2 degraded;
  check bool "each record's rung noted" true
    (D.taken ladder = [ (D.Fresh, 3); (D.Full_backlight, 2) ]);
  check int "frames covered" 100
    (Array.fold_left
       (fun a (e : Annotation.Track.entry) -> a + e.Annotation.Track.frame_count)
       0 patched.Annotation.Track.entries);
  let regs = Annotation.Track.register_track patched in
  let orig = Annotation.Track.register_track t in
  for i = 0 to 99 do
    if i >= 20 && i < 40 then check int "gap at full backlight" 255 regs.(i)
    else if i >= 60 && i < 80 then check int "gap at full backlight" 255 regs.(i)
    else check int "intact scenes keep dimming" orig.(i) regs.(i)
  done;
  (* The same drop with the clamp rung: gap 1 sits between two
     120-register scenes and adopts their level; gap 3's neighbours
     disagree, so it stays at full backlight. *)
  let regs =
    Annotation.Track.register_track
      (fst
         (Streaming.Session.patch_track (clamp_ladder ())
            (partial_of_track ~drop:[ 1; 3 ] t)))
  in
  for i = 20 to 39 do
    check int "agreeing neighbours clamp" 120 regs.(i)
  done;
  for i = 60 to 79 do
    check int "disagreeing neighbours stay full" 255 regs.(i)
  done

let test_patch_neighbour_clamp () =
  let t = sample_track () in
  (* Drop only entry 3, whose neighbours (2, 4) disagree: even the
     clamp rung refuses to guess. *)
  let patched, degraded =
    Streaming.Session.patch_track (clamp_ladder ()) (partial_of_track ~drop:[ 3 ] t)
  in
  check int "one degraded" 1 degraded;
  let regs = Annotation.Track.register_track patched in
  for i = 60 to 79 do
    check int "disagreeing neighbours: no guess" 255 regs.(i)
  done;
  (* Drop entry 1 (between two identical 120-register scenes): the
     clamp adopts the agreed level. *)
  let t2 =
    Annotation.Track.make ~clip_name:"c" ~device_name:"d"
      ~quality:Annotation.Quality_level.Loss_10 ~fps:8. ~total_frames:60
      [|
        { Annotation.Track.first_frame = 0; frame_count = 20; register = 120;
          compensation = 1.7; effective_max = 150 };
        { Annotation.Track.first_frame = 20; frame_count = 20; register = 30;
          compensation = 2.5; effective_max = 100 };
        { Annotation.Track.first_frame = 40; frame_count = 20; register = 120;
          compensation = 1.7; effective_max = 150 };
      |]
  in
  let ladder = clamp_ladder () in
  let patched, degraded =
    Streaming.Session.patch_track ladder (partial_of_track ~drop:[ 1 ] t2)
  in
  check int "one degraded" 1 degraded;
  check bool "clamp rung noted" true
    (D.taken ladder = [ (D.Fresh, 2); (D.Neighbour_clamp, 1) ]);
  let regs = Annotation.Track.register_track patched in
  for i = 20 to 39 do
    check int "agreeing neighbours clamp the gap" 120 regs.(i)
  done;
  (* The same drop without the clamp rung stays at 255: clamping saves
     strictly more energy, conservatively. *)
  let fb, _ =
    Streaming.Session.patch_track (full_ladder ()) (partial_of_track ~drop:[ 1 ] t2)
  in
  check int "full backlight for comparison" 255
    (Annotation.Track.register_track fb).(25);
  (* Leading and trailing gaps have only one neighbour: never guessed. *)
  let patched, _ =
    Streaming.Session.patch_track (clamp_ladder ())
      (partial_of_track ~drop:[ 0; 2 ] t2)
  in
  let regs = Annotation.Track.register_track patched in
  check int "leading gap safe" 255 regs.(0);
  check int "trailing gap safe" 255 regs.(59)

(* Hand-built CRC-valid streams, header fields and records anywhere
   around their bounds, under random loss masks: whatever
   [decode_partial] accepts, the ladder patches into a valid track. *)
let prop_patch_never_raises =
  QCheck2.Test.make ~count:3000 ~name:"patch_track never raises on a salvaged stream"
    ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let int n = Random.State.int rng n in
      let data = Raw_stream.random rng in
      let n = String.length data in
      let byte_ok =
        match int 3 with
        | 0 -> Array.make n true
        | 1 -> Array.init n (fun _ -> int 20 <> 0)
        | _ ->
          let from = int (n + 1) and len = int 40 in
          Array.init n (fun i -> i < from || i >= from + len)
      in
      match Annotation.Encoding.decode_partial ~byte_ok data with
      | Error _ -> true
      | Ok p -> (
        let ladder = if int 2 = 0 then clamp_ladder () else full_ladder () in
        match Streaming.Session.patch_track ladder p with
        | t, _ -> t.Annotation.Track.total_frames = p.Annotation.Encoding.total_frames
        | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e)))

(* Random tracks with a random subset of records lost or corrupt,
   patched under either ladder. *)
let prop_patch_track =
  let gen =
    QCheck2.Gen.(
      let* n = 1 -- 10 in
      let* spans = list_repeat n (triple (1 -- 12) (0 -- 3) bool) in
      let* clamp = bool in
      return (spans, clamp))
  in
  QCheck2.Test.make ~count:300
    ~name:"ladder patch keeps intact records, tiles the clip, fills safely" gen
    (fun (spans, clamp) ->
      (* Levels come from a small palette so neighbours often agree;
         the bool drops the record. *)
      let palette = [| (120, 150); (200, 230); (90, 120); (255, 255) |] in
      let entries, total =
        List.fold_left
          (fun (acc, first) (count, level, _) ->
            let register, effective_max = palette.(level) in
            ( {
                Annotation.Track.first_frame = first;
                frame_count = count;
                register;
                compensation = 255. /. float_of_int effective_max;
                effective_max;
              }
              :: acc,
              first + count ))
          ([], 0) spans
      in
      let entries = Array.of_list (List.rev entries) in
      let dropped = Array.of_list (List.map (fun (_, _, d) -> d) spans) in
      let slots =
        Array.mapi (fun i e -> if dropped.(i) then None else Some e) entries
      in
      let partial =
        {
          Annotation.Encoding.clip_name = "p";
          device_name = "d";
          quality = Annotation.Quality_level.Loss_10;
          fps = 8.;
          total_frames = total;
          records =
            Array.map
              (function
                | Some e -> Annotation.Encoding.Intact e
                | None -> Annotation.Encoding.Lost)
              slots;
          corrupt_records = 0;
          missing_records = 0;
        }
      in
      let ladder = if clamp then clamp_ladder () else full_ladder () in
      let patched, degraded = Streaming.Session.patch_track ladder partial in
      let out = patched.Annotation.Track.entries in
      let missing =
        Array.fold_left (fun a d -> if d then a + 1 else a) 0 dropped
      in
      let tiles =
        fst
          (Array.fold_left
             (fun (ok, next) (e : Annotation.Track.entry) ->
               (ok && e.first_frame = next, e.first_frame + e.frame_count))
             (true, 0) out)
        && Array.fold_left
             (fun a (e : Annotation.Track.entry) -> a + e.frame_count)
             0 out
           = total
      in
      let intact_in_place =
        Array.for_all
          (fun e ->
            match e with
            | None -> true
            | Some e -> Array.exists (fun o -> o = e) out)
          slots
      in
      (* A filled entry's intact neighbours: the intact records that
         end where it starts and start where it ends. *)
      let intact_ending_at f =
        Array.find_opt
          (function
            | Some (e : Annotation.Track.entry) -> e.first_frame + e.frame_count = f
            | None -> false)
          slots
      and intact_starting_at f =
        Array.find_opt
          (function
            | Some (e : Annotation.Track.entry) -> e.first_frame = f
            | None -> false)
          slots
      in
      let fills_safe =
        Array.for_all
          (fun (o : Annotation.Track.entry) ->
            Array.exists (fun e -> e = Some o) slots
            || (o.register = 255 && o.compensation = 1.)
            ||
            match
              ( intact_ending_at o.first_frame,
                intact_starting_at (o.first_frame + o.frame_count) )
            with
            | Some (Some a), Some (Some b) ->
              clamp && a.register = b.register
              && a.effective_max = b.effective_max
              && o.register = a.register
            | _ -> false)
          out
      in
      tiles && intact_in_place && degraded = missing && fills_safe)

(* --- NACK / retransmit loop --------------------------------------------- *)

let test_nack_repairs_within_budget () =
  let fault = Streaming.Fault.bernoulli ~rate:0.5 in
  let packets = Array.init 12 (fun i -> String.make 24 (Char.chr (65 + i))) in
  let arrival = Streaming.Fault.apply fault ~seed:21 packets in
  let missing_before =
    Array.fold_left (fun a p -> if p = None then a + 1 else a) 0 arrival
  in
  check bool "something to repair" true (missing_before > 0);
  let repaired, stats =
    Streaming.Transport.nack_retransmit ~fault:Streaming.Fault.none
      ~link:Streaming.Netsim.wlan_80211b ~budget_s:0.5 ~seed:4 ~packets arrival
  in
  (* A clean retransmission channel with a generous budget repairs
     everything in one round. *)
  check bool "all repaired" true (Array.for_all (fun p -> p <> None) repaired);
  check int "one round" 1 stats.Streaming.Transport.nack_rounds;
  check int "retransmitted = missing" missing_before
    stats.Streaming.Transport.packets_retransmitted;
  check bool "arrival not mutated" true
    (missing_before
     = Array.fold_left (fun a p -> if p = None then a + 1 else a) 0 arrival);
  check bool "time accounted" true (stats.Streaming.Transport.nack_time_s > 0.);
  check bool "budget not exhausted" true
    (not stats.Streaming.Transport.budget_exhausted)

let test_nack_budget_zero_and_exhaustion () =
  let fault = Streaming.Fault.bernoulli ~rate:0.5 in
  let packets = Array.init 12 (fun i -> String.make 24 (Char.chr (65 + i))) in
  let arrival = Streaming.Fault.apply fault ~seed:21 packets in
  let _, stats =
    Streaming.Transport.nack_retransmit ~fault ~link:Streaming.Netsim.wlan_80211b
      ~budget_s:0. ~seed:4 ~packets arrival
  in
  check int "budget 0: no rounds" 0 stats.Streaming.Transport.nack_rounds;
  check bool "budget 0: exhausted" true stats.Streaming.Transport.budget_exhausted;
  (* A lossy channel under a small budget: the exponential backoff
     bounds the number of rounds. *)
  let lossy = Streaming.Fault.bernoulli ~rate:0.95 in
  let arrival = Streaming.Fault.apply lossy ~seed:2 packets in
  let _, stats =
    Streaming.Transport.nack_retransmit ~fault:lossy
      ~link:Streaming.Netsim.wlan_80211b ~budget_s:0.05 ~seed:4 ~packets arrival
  in
  check bool "rounds bounded by backoff" true
    (stats.Streaming.Transport.nack_rounds <= 4);
  check bool "gave up" true stats.Streaming.Transport.budget_exhausted

(* --- end-to-end session chaos ------------------------------------------- *)

let clean_report clip =
  run_session
    { (Streaming.Session.default_config ~device) with
      Streaming.Session.fault = Some Streaming.Fault.none }
    clip

let test_session_fault_none_matches_legacy () =
  let clip = six_scene_clip () in
  let legacy = run_session (Streaming.Session.default_config ~device) clip in
  let faulted = clean_report clip in
  check bool "survived" true faulted.Streaming.Session.annotations_survived;
  check int "no degraded scenes" 0 faulted.Streaming.Session.degraded_scenes;
  check int "no retransmissions" 0 faulted.Streaming.Session.retransmissions;
  check int "no corrupt records" 0 faulted.Streaming.Session.corrupt_records;
  check flt "same backlight savings"
    legacy.Streaming.Session.backlight_savings
    faulted.Streaming.Session.backlight_savings;
  check flt "same device energy"
    legacy.Streaming.Session.device_energy_mj
    faulted.Streaming.Session.device_energy_mj;
  check flt "same psnr" legacy.Streaming.Session.video_mean_psnr
    faulted.Streaming.Session.video_mean_psnr

let chaos_profiles =
  [
    ("burst", Streaming.Fault.gilbert ~mean_loss:0.15 ~burst_length:4. ());
    ( "corrupting",
      { (Streaming.Fault.bernoulli ~rate:0.1) with
        Streaming.Fault.corrupt_rate = 0.01 } );
    ( "kitchen-sink",
      {
        (Streaming.Fault.gilbert ~mean_loss:0.2 ~burst_length:3. ()) with
        Streaming.Fault.corrupt_rate = 0.005;
        reorder_rate = 0.05;
        jitter_s = 0.004;
        collapse = Some { Streaming.Fault.at_fraction = 0.5; factor = 0.5 };
      } );
  ]

let test_session_chaos_sweep () =
  let clip = six_scene_clip () in
  let clean = clean_report clip in
  List.iter
    (fun (name, fault) ->
      for seed = 1 to 8 do
        let config =
          { (Streaming.Session.default_config ~device) with
            Streaming.Session.fault = Some fault; seed }
        in
        match Streaming.Session.run config clip with
        | Error e -> Alcotest.fail (Printf.sprintf "%s seed %d: %s" name seed e)
        | Ok r ->
          let ctx what = Printf.sprintf "%s seed %d: %s" name seed what in
          check bool (ctx "savings in range") true
            (r.Streaming.Session.backlight_savings >= -1e-9
             && r.Streaming.Session.backlight_savings <= 1.);
          check bool (ctx "counters non-negative") true
            (r.Streaming.Session.degraded_scenes >= 0
             && r.Streaming.Session.retransmissions >= 0
             && r.Streaming.Session.corrupt_records >= 0);
          (* Quality is never risked on a guess: degradation can only
             cost savings, never add any. *)
          check bool (ctx "savings monotone in surviving scenes") true
            (r.Streaming.Session.backlight_savings
             <= clean.Streaming.Session.backlight_savings +. 1e-9);
          if not r.Streaming.Session.annotations_survived then
            check flt (ctx "total loss: full backlight") 0.
              r.Streaming.Session.backlight_savings;
          if
            r.Streaming.Session.annotations_survived
            && r.Streaming.Session.degraded_scenes = 0
          then
            check flt (ctx "undamaged run matches clean savings")
              clean.Streaming.Session.backlight_savings
              r.Streaming.Session.backlight_savings;
          (* Determinism: the same chaos twice is the same session. *)
          let again = run_session config clip in
          check bool (ctx "deterministic") true (again = r)
      done)
    chaos_profiles

(* The acceptance scenario: a burst kills one FEC group outright (no
   NACK budget), yet the session dims every surviving scene — strictly
   better than the old whole-clip fallback's 0 %. *)
let test_session_partial_survival_beats_whole_clip_fallback () =
  let clip = six_scene_clip () in
  let clean = clean_report clip in
  let fault = Streaming.Fault.gilbert ~mean_loss:0.25 ~burst_length:4. () in
  let rec find seed =
    if seed > 300 then Alcotest.fail "no partial-survival seed found"
    else begin
      let config =
        { (Streaming.Session.default_config ~device) with
          Streaming.Session.fault = Some fault; nack_budget_s = 0.; seed }
      in
      let r = run_session config clip in
      if
        r.Streaming.Session.annotations_survived
        && r.Streaming.Session.degraded_scenes >= 1
      then r
      else find (seed + 1)
    end
  in
  let r = find 1 in
  check bool "some scenes degraded" true (r.Streaming.Session.degraded_scenes >= 1);
  check bool "but not all: partial survival" true r.Streaming.Session.annotations_survived;
  check bool "strictly beats whole-clip fallback" true
    (r.Streaming.Session.backlight_savings > 0.);
  check bool "costs something vs clean" true
    (r.Streaming.Session.backlight_savings
     < clean.Streaming.Session.backlight_savings +. 1e-9)

let test_session_nack_rescues_savings () =
  (* With retransmission budget the same hostile channel recovers more
     scenes (or at least never fewer) than without. *)
  let clip = six_scene_clip () in
  let fault = Streaming.Fault.gilbert ~mean_loss:0.25 ~burst_length:4. () in
  let run ~budget seed =
    run_session
      { (Streaming.Session.default_config ~device) with
        Streaming.Session.fault = Some fault; nack_budget_s = budget; seed }
      clip
  in
  let rescued = ref false in
  for seed = 1 to 12 do
    let without = run ~budget:0. seed in
    let with_nack = run ~budget:0.1 seed in
    check bool "nack never degrades more" true
      (with_nack.Streaming.Session.degraded_scenes
       <= without.Streaming.Session.degraded_scenes);
    if
      with_nack.Streaming.Session.degraded_scenes
      < without.Streaming.Session.degraded_scenes
      || (with_nack.Streaming.Session.annotations_survived
         && not without.Streaming.Session.annotations_survived)
    then rescued := true
  done;
  check bool "retransmission rescued at least one session" true !rescued

let () =
  Alcotest.run "fault"
    [
      ( "profiles",
        [
          Alcotest.test_case "parse" `Quick test_profile_parse;
          Alcotest.test_case "rejects garbage" `Quick test_profile_rejects_garbage;
          Alcotest.test_case "grammar messages" `Quick
            test_profile_grammar_messages;
        ] );
      ( "models",
        [
          Alcotest.test_case "loss mask edges" `Quick test_loss_mask_edges;
          Alcotest.test_case "gilbert statistics" `Quick test_gilbert_statistics;
          Alcotest.test_case "corruption and reorder" `Quick test_apply_corruption;
          Alcotest.test_case "delay and collapse" `Quick test_delay_and_collapse;
        ] );
      ( "fec",
        [
          Alcotest.test_case "single/double loss grid" `Quick test_fec_loss_grid;
          Alcotest.test_case "recover_detail" `Quick test_fec_recover_detail_clean;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
          Alcotest.test_case "v1 rejected" `Quick test_v1_rejected;
          Alcotest.test_case "partial classification" `Quick
            test_decode_partial_classification;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "full backlight fill" `Quick test_patch_full_backlight;
          Alcotest.test_case "neighbour clamp" `Quick test_patch_neighbour_clamp;
          QCheck_alcotest.to_alcotest prop_patch_track;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
            prop_patch_never_raises;
        ] );
      ( "nack",
        [
          Alcotest.test_case "repairs within budget" `Quick
            test_nack_repairs_within_budget;
          Alcotest.test_case "budget zero and exhaustion" `Quick
            test_nack_budget_zero_and_exhaustion;
        ] );
      ( "session",
        [
          Alcotest.test_case "fault none matches legacy" `Quick
            test_session_fault_none_matches_legacy;
          Alcotest.test_case "chaos sweep" `Quick test_session_chaos_sweep;
          Alcotest.test_case "partial survival beats fallback" `Quick
            test_session_partial_survival_beats_whole_clip_fallback;
          Alcotest.test_case "nack rescues savings" `Quick
            test_session_nack_rescues_savings;
        ] );
    ]

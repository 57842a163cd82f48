(* Energy-attribution profiler: attribution paths, profiler totals
   against the meter's own integral, session attribution against the
   session report, the behaviour-neutrality guarantee (reports
   byte-identical with the profiler on and off), and the OpenMetrics /
   Chrome-trace conformance fixes that ride along. *)

let check = Alcotest.check
let flt = Alcotest.float 1e-9

(* Run [f] with observability on and a fresh profiler installed;
   always uninstalls, so test order cannot leak an instance. *)
let with_profiler f =
  Obs.with_enabled @@ fun () ->
  let p = Obs.Profile.create () in
  Obs.Profile.install p;
  Fun.protect ~finally:Obs.Profile.uninstall (fun () -> f p)

(* --- Profiler ----------------------------------------------------------- *)

let test_attribution_paths () =
  with_profiler @@ fun p ->
  Obs.Trace.with_span "session.playback" (fun () ->
      Obs.Profile.record ~scene:3 ~component:"backlight" 10.;
      Obs.Profile.record ~scene:3 ~component:"backlight" 5.;
      Obs.Profile.record ~component:"decode" 2.);
  Obs.Profile.record ~component:"radio" 1.;
  check
    (Alcotest.list (Alcotest.pair (Alcotest.list Alcotest.string) flt))
    "stacks sorted by path"
    [
      ([ "radio" ], 1.);
      ([ "session.playback"; "decode" ], 2.);
      ([ "session.playback"; "scene.3"; "backlight" ], 15.);
    ]
    (Obs.Profile.stacks p);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string flt))
    "per-component totals"
    [ ("backlight", 15.); ("decode", 2.); ("radio", 1.) ]
    (Obs.Profile.by_component p);
  check flt "grand total" 18. (Obs.Profile.total_mj p);
  check Alcotest.int "every sample kept" 4 (Obs.Profile.samples p)

let test_record_requires_install () =
  Obs.with_enabled @@ fun () ->
  let p = Obs.Profile.create () in
  Obs.Profile.record ~component:"lcd" 5.;
  check flt "uninstalled profiler sees nothing" 0. (Obs.Profile.total_mj p);
  Obs.Profile.install p;
  Fun.protect ~finally:Obs.Profile.uninstall (fun () ->
      Obs.Profile.record ~component:"lcd" Float.nan;
      Obs.Profile.record ~component:"lcd" 5.);
  check flt "finite sample attributed, NaN dropped" 5.
    (Obs.Profile.total_mj p)

let test_flamegraph_format () =
  with_profiler @@ fun p ->
  Obs.Trace.with_span "session.playback" (fun () ->
      Obs.Profile.record ~scene:0 ~component:"backlight" 1.5;
      (* Hostile component names must not corrupt the collapsed-stack
         separators. *)
      Obs.Profile.record ~component:"weird name;here" 2.);
  check Alcotest.string "collapsed stacks in integer microjoules"
    "session.playback;scene.0;backlight 1500\n\
     session.playback;weird_name_here 2000\n"
    (Obs.Profile.flamegraph p)

let test_profiler_matches_meter () =
  (* The tentpole invariant: total attributed energy equals the
     meter's own integral to 1e-9 J (= 1e-6 mJ). *)
  with_profiler @@ fun p ->
  let meter = Power.Meter.create ~sample_rate_hz:500. () in
  let r1 =
    Power.Meter.measure ~component:"lcd" meter ~duration_s:2. (fun t ->
        100. +. (25. *. t))
  in
  let r2 =
    Power.Meter.measure_trace ~component:"cpu" meter ~dt_s:0.01
      (Array.init 100 (fun i -> 50. +. float_of_int (i mod 7)))
  in
  check Alcotest.bool "meter totals reproduced within 1e-9 J" true
    (Float.abs
       (Obs.Profile.total_mj p
       -. (r1.Power.Meter.energy_mj +. r2.Power.Meter.energy_mj))
    < 1e-6)

let test_counter_track () =
  with_profiler @@ fun p ->
  Obs.Profile.record ~component:"backlight" 10.;
  Obs.Profile.record ~component:"decode" 4.;
  Obs.Profile.record ~component:"backlight" 1.;
  let events = Obs.Profile.counter_events p in
  check Alcotest.int "one counter sample per recording" 3
    (List.length events);
  let last = List.nth events 2 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string flt))
    "cumulative per-component values, name-sorted"
    [ ("backlight", 11.); ("decode", 4.) ]
    last.Obs.Trace.c_values;
  check Alcotest.bool "timestamps monotone" true
    (List.for_all2
       (fun a b -> Int64.compare a.Obs.Trace.c_ts_ns b.Obs.Trace.c_ts_ns <= 0)
       [ List.nth events 0; List.nth events 1 ]
       [ List.nth events 1; List.nth events 2 ])

let test_chrome_interleave () =
  (* Counter events must interleave with span events in timestamp
     order in the combined Chrome stream. *)
  Obs.with_enabled @@ fun () ->
  Obs.Trace.reset ();
  let p = Obs.Profile.create () in
  Obs.Profile.install p;
  Fun.protect ~finally:Obs.Profile.uninstall (fun () ->
      Obs.Trace.with_span "stage.a" (fun () ->
          Obs.Profile.record ~component:"lcd" 1.);
      Obs.Trace.with_span "stage.b" (fun () ->
          Obs.Profile.record ~component:"lcd" 2.);
      let json =
        Obs.Trace.to_chrome_json ~counters:(Obs.Profile.counter_events p) ()
      in
      match json with
      | Obs.Json.List events ->
        let str j = match j with Obs.Json.String s -> s | _ -> "?" in
        let num j =
          match j with
          | Obs.Json.Float f -> f
          | Obs.Json.Int i -> float_of_int i
          | _ -> Float.nan
        in
        let phases =
          List.map
            (fun e ->
              match e with
              | Obs.Json.Obj f ->
                (str (List.assoc "ph" f), num (List.assoc "ts" f))
              | _ -> Alcotest.fail "event is not an object")
            events
        in
        check Alcotest.int "two spans and two counter samples" 4
          (List.length phases);
        check (Alcotest.list Alcotest.string) "phases interleaved"
          [ "X"; "C"; "X"; "C" ]
          (List.map fst phases);
        check Alcotest.bool "stream sorted by timestamp" true
          (let ts = List.map snd phases in
           List.for_all2 (fun a b -> a <= b) ts (List.tl ts @ [ Float.max_float ]))
      | _ -> Alcotest.fail "chrome json is not an event list")

(* --- Session attribution ------------------------------------------------ *)

let device = Display.Device.ipaq_h5555

let clip =
  Video.Clip_gen.render ~width:48 ~height:36 ~fps:12. Video.Workloads.themovie

let run_session () =
  match Streaming.Session.run (Streaming.Session.default_config ~device) clip with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_session_attribution_total () =
  (* Attributed joules must reproduce the session report's
     device_energy_mj: backlight + display + decode + radio is the
     whole device. *)
  with_profiler @@ fun p ->
  let report = run_session () in
  check Alcotest.bool "components cover the device total" true
    (Float.abs (Obs.Profile.total_mj p -. report.Streaming.Session.device_energy_mj)
    < 1e-6);
  let components = List.map fst (Obs.Profile.by_component p) in
  check (Alcotest.list Alcotest.string) "all four components present"
    [ "backlight"; "decode"; "display"; "radio" ]
    components;
  (* Scene segments appear in the stacks. *)
  check Alcotest.bool "scene-level attribution present" true
    (List.exists
       (fun (path, _) ->
         List.exists
           (fun seg -> String.length seg > 6 && String.sub seg 0 6 = "scene.")
           path)
       (Obs.Profile.stacks p))

let test_profiling_is_behaviour_neutral () =
  (* The acceptance bar: with the profiler installed and without,
     session reports are byte-identical — attribution is read-only.
     Compare rendered reports; the config inside the record holds a
     link simulator that structural equality cannot traverse. *)
  let render r = Format.asprintf "%a" Streaming.Session.pp_report r in
  let plain = render (run_session ()) in
  let profiled = with_profiler (fun _ -> render (run_session ())) in
  check Alcotest.string "reports byte-identical with profiler on" plain
    profiled

(* --- OpenMetrics conformance (satellite regressions) -------------------- *)

let render_families families = Obs.Openmetrics.render families

let contains text needle =
  let n = String.length needle and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
  n = 0 || go 0

let gauge_family name v =
  {
    Obs.Registry.family = name;
    help = "h";
    kind = Obs.Registry.Gauge;
    series = [ { Obs.Registry.labels = []; value = Obs.Registry.Gauge_v v } ];
  }

let test_openmetrics_nonfinite () =
  let text =
    render_families
      [
        gauge_family "a" Float.infinity;
        gauge_family "b" Float.neg_infinity;
        gauge_family "c" Float.nan;
      ]
  in
  let has = contains text in
  check Alcotest.bool "+Inf spelled per spec" true (has "a +Inf");
  check Alcotest.bool "-Inf spelled per spec" true (has "b -Inf");
  check Alcotest.bool "NaN spelled per spec" true (has "c NaN");
  check Alcotest.bool "no bare printf inf leaks" false (has " inf")

let test_openmetrics_unit_line () =
  let text =
    render_families
      [ gauge_family "profile_energy_mj" 1.; gauge_family "plain" 2. ]
  in
  let has = contains text in
  check Alcotest.bool "# UNIT emitted for suffixed family" true
    (has "# UNIT profile_energy_mj mj");
  check Alcotest.bool "no unit line without a suffix" false (has "# UNIT plain")

let test_openmetrics_escaping () =
  let fam =
    {
      Obs.Registry.family = "esc";
      help = "line\nbreak and \\slash";
      kind = Obs.Registry.Gauge;
      series =
        [
          {
            Obs.Registry.labels = [ ("k", "quote\" back\\ nl\n") ];
            value = Obs.Registry.Gauge_v 1.;
          };
        ];
    }
  in
  let text = render_families [ fam ] in
  let has = contains text in
  check Alcotest.bool "help newline escaped" true (has "line\\nbreak");
  check Alcotest.bool "help backslash escaped" true (has "and \\\\slash");
  check Alcotest.bool "label value escaped" true
    (has "{k=\"quote\\\" back\\\\ nl\\n\"}")

let () =
  Alcotest.run "profile"
    [
      ( "profiler",
        [
          Alcotest.test_case "attribution paths" `Quick test_attribution_paths;
          Alcotest.test_case "record requires install" `Quick
            test_record_requires_install;
          Alcotest.test_case "flamegraph format" `Quick test_flamegraph_format;
          Alcotest.test_case "matches the meter" `Quick
            test_profiler_matches_meter;
          Alcotest.test_case "counter track" `Quick test_counter_track;
          Alcotest.test_case "chrome interleave" `Quick test_chrome_interleave;
        ] );
      ( "session attribution",
        [
          Alcotest.test_case "covers device total" `Quick
            test_session_attribution_total;
          Alcotest.test_case "behaviour neutral" `Quick
            test_profiling_is_behaviour_neutral;
        ] );
      ( "openmetrics conformance",
        [
          Alcotest.test_case "non-finite spellings" `Quick
            test_openmetrics_nonfinite;
          Alcotest.test_case "unit line" `Quick test_openmetrics_unit_line;
          Alcotest.test_case "escaping" `Quick test_openmetrics_escaping;
        ] );
    ]

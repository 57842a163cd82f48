(* Tests for the observability layer: instrument semantics (including
   concurrent updates), registry snapshots and their JSON round-trip,
   span nesting and timing, JSON string escaping, and the contract that
   instrumentation never changes what the simulation reports. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let flt = Alcotest.float 1e-9

(* Every test that records runs inside [Obs.with_enabled] and uses a
   fresh registry where possible, so tests stay independent of each
   other and of the process-global default registry. *)

(* --- counters ----------------------------------------------------------- *)

let test_counter_basic () =
  Obs.with_enabled @@ fun () ->
  let c = Obs.Metrics.Counter.create () in
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.incr c ~by:41;
  check int "accumulated" 42 (Obs.Metrics.Counter.value c);
  Obs.Metrics.Counter.incr c ~by:(-5);
  check int "negative increment dropped" 42 (Obs.Metrics.Counter.value c);
  Obs.Metrics.Counter.reset c;
  check int "reset" 0 (Obs.Metrics.Counter.value c)

let test_counter_disabled_is_dropped () =
  Obs.disable ();
  let c = Obs.Metrics.Counter.create () in
  Obs.Metrics.Counter.incr c ~by:1000;
  check int "update dropped while disabled" 0 (Obs.Metrics.Counter.value c)

let test_counter_concurrent () =
  Obs.with_enabled @@ fun () ->
  let c = Obs.Metrics.Counter.create () in
  let per_domain = 10_000 and domains = 4 in
  let spawned =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Metrics.Counter.incr c
            done))
  in
  List.iter Domain.join spawned;
  check int "no lost increments" (domains * per_domain)
    (Obs.Metrics.Counter.value c)

(* --- gauges ------------------------------------------------------------- *)

let test_gauge () =
  Obs.with_enabled @@ fun () ->
  let g = Obs.Metrics.Gauge.create () in
  Obs.Metrics.Gauge.set g 3.5;
  check flt "set" 3.5 (Obs.Metrics.Gauge.value g);
  Obs.Metrics.Gauge.add g (-1.25);
  check flt "add" 2.25 (Obs.Metrics.Gauge.value g);
  Obs.Metrics.Gauge.reset g;
  check flt "reset" 0. (Obs.Metrics.Gauge.value g)

let test_gauge_concurrent_add () =
  Obs.with_enabled @@ fun () ->
  let g = Obs.Metrics.Gauge.create () in
  let per_domain = 5_000 and domains = 4 in
  let spawned =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Metrics.Gauge.add g 1.
            done))
  in
  List.iter Domain.join spawned;
  check flt "CAS add loses nothing"
    (float_of_int (domains * per_domain))
    (Obs.Metrics.Gauge.value g)

(* --- clock ---------------------------------------------------------------- *)

(* Two domains each check that their own readings never decrease.
   Each also publishes its latest reading in a shared Atomic and,
   before each reading, takes what was last published: a reading
   taken after another domain's published one is never smaller. *)
let test_clock_monotonic () =
  let shared = Atomic.make (Obs.Clock.now_ns ()) in
  let run () =
    let last = ref 0L and backwards = ref 0 in
    for _ = 1 to 20_000 do
      let published = Atomic.get shared in
      let t = Obs.Clock.now_ns () in
      if Int64.compare t published < 0 || Int64.compare t !last < 0 then
        incr backwards;
      last := t;
      Atomic.set shared t
    done;
    !backwards
  in
  let spawned = List.init 2 (fun _ -> Domain.spawn run) in
  check (Alcotest.list int) "no reading went back, in either domain" [ 0; 0 ]
    (List.map Domain.join spawned);
  check bool "elapsed_ns is never negative" true
    (Int64.compare (Obs.Clock.elapsed_ns ~since:Int64.max_int) 0L = 0)

(* --- histograms --------------------------------------------------------- *)

let test_histogram_buckets () =
  Obs.with_enabled @@ fun () ->
  let h = Obs.Metrics.Histogram.create ~buckets:[| 1.; 2.; 5. |] in
  List.iter (Obs.Metrics.Histogram.observe h) [ 0.5; 1.; 1.5; 10. ];
  check int "count" 4 (Obs.Metrics.Histogram.count h);
  check flt "sum" 13. (Obs.Metrics.Histogram.sum h);
  let counts = Obs.Metrics.Histogram.bucket_counts h in
  (* Bounds are inclusive: 1.0 lands in the <=1 bucket. *)
  check int "bucket <=1" 2 (snd counts.(0));
  check int "bucket <=2" 1 (snd counts.(1));
  check int "bucket <=5" 0 (snd counts.(2));
  check int "overflow" 1 (Obs.Metrics.Histogram.overflow h);
  Obs.Metrics.Histogram.reset h;
  check int "reset count" 0 (Obs.Metrics.Histogram.count h);
  check flt "reset sum" 0. (Obs.Metrics.Histogram.sum h)

let test_histogram_rejects_bad_buckets () =
  Alcotest.check_raises "non-increasing bounds"
    (Invalid_argument "Obs histogram: bucket bounds must be strictly increasing")
    (fun () -> ignore (Obs.Metrics.Histogram.create ~buckets:[| 1.; 1. |]));
  Alcotest.check_raises "empty bounds"
    (Invalid_argument "Obs histogram: no buckets") (fun () ->
      ignore (Obs.Metrics.Histogram.create ~buckets:[||]))

(* --- registry ----------------------------------------------------------- *)

let test_registry_get_or_create () =
  Obs.with_enabled @@ fun () ->
  let r = Obs.Registry.create () in
  let c1 = Obs.Registry.counter ~registry:r "requests_total" [ ("op", "read") ] in
  let c2 = Obs.Registry.counter ~registry:r "requests_total" [ ("op", "read") ] in
  Obs.Metrics.Counter.incr c1;
  Obs.Metrics.Counter.incr c2;
  check int "same series behind both handles" 2 (Obs.Metrics.Counter.value c1);
  ignore (Obs.Registry.counter ~registry:r "requests_total" [ ("op", "write") ]);
  ignore (Obs.Registry.gauge ~registry:r "depth" []);
  check int "two families" 2 (Obs.Registry.family_count ~registry:r ())

let test_registry_kind_mismatch () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.counter ~registry:r "thing" []);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs.Registry: thing is a counter, requested as gauge")
    (fun () -> ignore (Obs.Registry.gauge ~registry:r "thing" []))

let test_registry_snapshot_and_reset () =
  Obs.with_enabled @@ fun () ->
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry:r "events_total" [] in
  let g = Obs.Registry.gauge ~registry:r "level" [] in
  Obs.Metrics.Counter.incr c ~by:7;
  Obs.Metrics.Gauge.set g 1.5;
  (match Obs.Registry.snapshot ~registry:r () with
  | [ events; level ] ->
    check string "sorted by family name" "events_total" events.Obs.Registry.family;
    check string "second family" "level" level.Obs.Registry.family;
    (match (events.Obs.Registry.series, level.Obs.Registry.series) with
    | [ { value = Obs.Registry.Counter_v n; _ } ],
      [ { value = Obs.Registry.Gauge_v v; _ } ] ->
      check int "counter value" 7 n;
      check flt "gauge value" 1.5 v
    | _ -> Alcotest.fail "unexpected series shape")
  | snap -> Alcotest.failf "expected 2 families, got %d" (List.length snap));
  Obs.Registry.reset ~registry:r ();
  check int "counter zeroed in place" 0 (Obs.Metrics.Counter.value c);
  Obs.Metrics.Counter.incr c;
  check int "handle still live after reset" 1 (Obs.Metrics.Counter.value c)

let test_registry_json_roundtrip () =
  Obs.with_enabled @@ fun () ->
  let r = Obs.Registry.create () in
  Obs.Metrics.Counter.incr
    (Obs.Registry.counter ~registry:r ~help:"sessions" "sessions_total"
       [ ("outcome", "ok") ])
    ~by:3;
  Obs.Metrics.Gauge.set (Obs.Registry.gauge ~registry:r "energy_mj" []) 1234.5678;
  let h =
    Obs.Registry.histogram ~registry:r ~buckets:[| 0.001; 0.01; 0.1 |]
      "latency_seconds" []
  in
  List.iter (Obs.Metrics.Histogram.observe h) [ 0.0005; 0.05; 2.7 ];
  let snap = Obs.Registry.snapshot ~registry:r () in
  (* The rendered text (the bench's metrics dump) must be parseable
     JSON that reads back to the same tree. *)
  match Obs.Json.of_string (Obs.Json.to_string (Obs.Registry.to_json snap)) with
  | Error e -> Alcotest.failf "rendered JSON unparseable: %s" e
  | Ok reparsed ->
    check bool "string round-trip" true (reparsed = Obs.Registry.to_json snap)

(* --- spans -------------------------------------------------------------- *)

let test_span_nesting_and_timing () =
  Obs.with_enabled @@ fun () ->
  Obs.Trace.reset ();
  let result =
    Obs.Trace.with_span "outer" ~attrs:[ ("k", "v") ] (fun () ->
        Obs.Trace.with_span "inner_a" (fun () -> ignore (Sys.opaque_identity 1));
        Obs.Trace.with_span "inner_b" (fun () -> 17))
  in
  check int "with_span returns callback result" 17 result;
  match Obs.Trace.roots () with
  | [ outer ] ->
    check string "root name" "outer" outer.Obs.Trace.name;
    check bool "attrs kept" true (outer.Obs.Trace.attrs = [ ("k", "v") ]);
    (match outer.Obs.Trace.children with
    | [ a; b ] ->
      check string "children in start order" "inner_a" a.Obs.Trace.name;
      check string "second child" "inner_b" b.Obs.Trace.name;
      let open Int64 in
      check bool "durations non-negative" true
        (outer.Obs.Trace.duration_ns >= 0L && a.Obs.Trace.duration_ns >= 0L);
      check bool "child starts after parent" true
        (a.Obs.Trace.start_ns >= outer.Obs.Trace.start_ns);
      check bool "children start in order" true
        (b.Obs.Trace.start_ns >= a.Obs.Trace.start_ns);
      check bool "child interval inside parent" true
        (add b.Obs.Trace.start_ns b.Obs.Trace.duration_ns
         <= add outer.Obs.Trace.start_ns outer.Obs.Trace.duration_ns)
    | kids -> Alcotest.failf "expected 2 children, got %d" (List.length kids));
    check int "span_count counts the whole tree" 3 (Obs.Trace.span_count ())
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_span_exception_safe () =
  Obs.with_enabled @@ fun () ->
  Obs.Trace.reset ();
  (try Obs.Trace.with_span "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  match Obs.Trace.roots () with
  | [ s ] -> check string "span recorded despite raise" "boom" s.Obs.Trace.name
  | _ -> Alcotest.fail "raising span was not recorded"

let test_span_disabled_records_nothing () =
  Obs.disable ();
  Obs.with_enabled (fun () -> Obs.Trace.reset ());
  check string "disabled span still runs callback" "x"
    (Obs.Trace.with_span "ghost" (fun () -> "x"));
  Obs.with_enabled (fun () ->
      check int "nothing recorded while disabled" 0 (Obs.Trace.span_count ()))

let test_chrome_export () =
  Obs.with_enabled @@ fun () ->
  Obs.Trace.reset ();
  Obs.Trace.with_span "parent" ~attrs:[ ("clip", "test") ] (fun () ->
      Obs.Trace.with_span "child" (fun () -> ()));
  let json = Obs.Trace.to_chrome_json () in
  (* Must survive a print/parse cycle — what chrome://tracing loads. *)
  (match Obs.Json.of_string (Obs.Json.to_string json) with
  | Error e -> Alcotest.failf "chrome trace unparseable: %s" e
  | Ok reparsed -> check bool "parses back" true (reparsed = json));
  match json with
  | Obs.Json.List events ->
    check int "one event per span" (Obs.Trace.span_count ()) (List.length events);
    List.iter
      (fun e ->
        check bool "complete event" true
          (Obs.Json.member "ph" e = Some (Obs.Json.String "X"));
        check bool "has name" true (Obs.Json.member "name" e <> None);
        check bool "has ts" true (Obs.Json.member "ts" e <> None);
        check bool "has dur" true (Obs.Json.member "dur" e <> None))
      events
  | _ -> Alcotest.fail "chrome trace must be a JSON array"

(* --- JSON ----------------------------------------------------------------- *)

let test_json_string_escaping () =
  (* Quotes, backslashes and control characters must round-trip
     exactly, as values and as keys, and render on one line. *)
  let nasty = "quote \" backslash \\ tab \t newline \n bell \007 end" in
  let json =
    Obs.Json.Obj
      [ ("message", Obs.Json.String nasty); (nasty, Obs.Json.List [ Obs.Json.String nasty ]) ]
  in
  let text = Obs.Json.to_string json in
  check bool "no raw control characters" true
    (String.for_all (fun c -> Char.code c >= 0x20) text);
  match Obs.Json.of_string text with
  | Error e -> Alcotest.failf "rendered JSON unparseable (%s): %s" e text
  | Ok reparsed -> check bool "round-trips exactly" true (reparsed = json)

(* --- behaviour neutrality ----------------------------------------------- *)

let ok_or_fail what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %s" what e

let default_rules () =
  ok_or_fail "default.slo" (Obs.Slo.load ~path:"../examples/default.slo")

(* Runs [f] with the program's obs on, a monitor over [rules] and a
   journal installed, as the CLIs' --monitor --journal runs do.
   Returns [f]'s result, the monitor's verdicts (one line each, floats
   in hex so nothing is rounded) and the journal bytes, sealed after
   the monitor's final window. The default registry is reset first:
   quantile rules read its sketches. *)
let with_telemetry ~rules f =
  Obs.Registry.reset ();
  let journal = Obs.Journal.create () in
  let monitor = Obs.Monitor.create ~rules () in
  Obs.enable ();
  Obs.Journal.install journal;
  Obs.Monitor.install monitor;
  Fun.protect
    ~finally:(fun () ->
      Obs.Journal.uninstall ();
      Obs.Monitor.uninstall ();
      Obs.Trace.reset ();
      Obs.disable ())
    (fun () ->
      let r = f () in
      let hex = function None -> "-" | Some v -> Printf.sprintf "%h" v in
      let verdicts =
        List.map
          (fun (v : Obs.Monitor.verdict) ->
            Printf.sprintf "%s | evaluated %d breached %d worst %s final %s%s"
              v.Obs.Monitor.rule.Obs.Slo.source v.evaluated v.breached
              (hex v.worst) (hex v.final)
              (if v.final_breach then " BREACH" else ""))
          (Obs.Monitor.report monitor).Obs.Monitor.verdicts
      in
      (r, verdicts, Obs.Journal.to_string journal))

let session_report config clip () =
  match Streaming.Session.run config clip with
  | Error e -> Alcotest.failf "session failed: %s" e
  | Ok r -> Format.asprintf "%a" Streaming.Session.pp_report r

(* The whole layer is opt-in: a session must report byte-for-byte the
   same numbers whether or not observability is recording. This is the
   contract that lets instrumentation live permanently in the hot
   path. *)
let test_session_report_unchanged_by_obs () =
  let clip =
    Video.Clip_gen.render ~width:32 ~height:24 ~fps:8.
      Video.Workloads.officexp
  in
  let config =
    { (Streaming.Session.default_config ~device:Display.Device.ipaq_h5555) with
      Streaming.Session.fault = Some (Streaming.Fault.bernoulli ~rate:0.05) }
  in
  let report_string = session_report config clip in
  Obs.disable ();
  let plain = report_string () in
  let observed = Obs.with_enabled report_string in
  check string "byte-identical report with obs on" plain observed;
  let monitored, _, journal = with_telemetry ~rules:(default_rules ()) report_string in
  check string "and with a monitor and a journal on" plain monitored;
  check bool "the journal recorded the session" true
    (String.length journal > String.length Obs.Journal.magic);
  Obs.disable ();
  check string "and again with obs back off" plain (report_string ())

(* --- telemetry goldens ----------------------------------------------------- *)

(* One session in the benchmark's chaos-warm configuration: bursty
   loss with corruption, reorder, jitter and a bandwidth collapse
   (examples/chaos.fault) and the aggressive resilience plane, on a
   48-frame 32x24 clip. *)
let chaos_warm_report () =
  let fault =
    ok_or_fail "chaos.fault" (Streaming.Fault.load ~path:"../examples/chaos.fault")
  in
  let resilience =
    ok_or_fail "aggressive.resilience"
      (Resilience.Profile.load ~path:"../examples/aggressive.resilience")
  in
  let full =
    Video.Clip_gen.render ~width:32 ~height:24 ~fps:12. Video.Workloads.catwoman
  in
  let clip =
    Video.Clip.make ~name:full.Video.Clip.name ~width:32 ~height:24 ~fps:12.
      ~frame_count:48 full.Video.Clip.render
  in
  let config =
    {
      (Streaming.Session.default_config ~device:Display.Device.ipaq_h5555) with
      Streaming.Session.fault = Some fault;
      resilience = Some resilience;
      seed = 100_004;
    }
  in
  session_report config clip

(* Pinned on the code before the codec's timing histograms and the
   wall-clock shim were removed: telemetry that records counts and
   simulated time must not move when the host clock or the per-op
   timing changes. *)
let golden_verdicts =
  [
    "streaming_frame_latency_seconds_p99 < 0.25 | evaluated 6 breached 0 worst \
     0x1.79b16e9712519p-8 final 0x1.69d61be129c8cp-8";
    "annot_clip_fraction_p95 <= 0.1 | evaluated 6 breached 0 worst 0x1.98p-4 final \
     0x1.98p-4";
    "deadline_miss_rate < 0.05 | evaluated 6 breached 0 worst 0x0p+0 final 0x0p+0";
    "backlight_switches_per_s < 6 | evaluated 6 breached 0 worst 0x1p+0 final 0x1p-1";
    "annot_records_corrupt_total == 0 | evaluated 1 breached 1 worst 0x1p+0 final \
     0x1p+0 BREACH";
    "ladder_depth <= 3 | evaluated 6 breached 0 worst 0x1.8p+1 final 0x1.8p+1";
    "breaker_state <= 2 | evaluated 0 breached 0 worst - final -";
  ]

let golden_journal_md5 = "41004aa7d2e95d51aa2b8e098ead5912"

let test_chaos_warm_goldens () =
  let report_string = chaos_warm_report () in
  Obs.disable ();
  let plain = report_string () in
  let report, verdicts, journal = with_telemetry ~rules:(default_rules ()) report_string in
  check string "report byte-identical with telemetry on" plain report;
  check (Alcotest.list string) "SLO verdicts" golden_verdicts verdicts;
  check string "journal digest" golden_journal_md5
    (Digest.to_hex (Digest.string journal))

(* --- scrape manifest ------------------------------------------------------ *)

(* Every family the default registry exposes, each with the reader that
   keeps it there. A family nothing reads does not belong in the
   scrape: a new one comes with a reader named here. *)
let scrape_manifest =
  [
    (* examples/default.slo: annot_clip_fraction_p95 *)
    "annot_clip_fraction";
    (* test_streaming: a clip is profiled once under contention *)
    "annot_profiles_total";
    (* bench work row (dct_ops); test_codec "decode counters" *)
    "codec_dct_ops_total";
    (* test_codec "decode counters" *)
    "codec_decoded_bytes_total";
    (* bench work row (encoded_bytes) *)
    "codec_encoded_bytes_total";
    (* test_codec "decode counters"; bench work row (decoded_frames_ fields);
       test_streaming "decode once" *)
    "codec_frames_decoded_total";
    (* bench work row (encoded frames) *)
    "codec_frames_encoded_total";
    (* bench work row (quant_ops); test_codec "decode counters" *)
    "codec_quant_ops_total";
    (* bench work row (sad_rows) *)
    "codec_sad_rows_total";
    (* test_streaming "forced first frame counted" *)
    "forced_first_frame_deliveries_total";
    (* test_monitor "NaN/negative clamp and synthetic family" *)
    "obs_dropped_samples_total";
    (* test_profile: the gauge tracks the profiler's component totals *)
    "profile_energy_mj";
    (* examples/default.slo: streaming_frame_latency_seconds_p99 *)
    "streaming_frame_latency_seconds";
  ]

let test_scrape_manifest () =
  (* One monitored, journaled, profiled chaos session ... *)
  let profiler = Obs.Profile.create () in
  Obs.Profile.install profiler;
  Fun.protect ~finally:Obs.Profile.uninstall (fun () ->
      ignore (with_telemetry ~rules:(default_rules ()) (chaos_warm_report ())));
  check bool "the profiler saw the session" true (Obs.Profile.samples profiler > 0);
  (* ... and one small fleet run ... *)
  let clips =
    Array.init 3 (fun i ->
        Video.Clip_gen.render ~width:16 ~height:12 ~fps:8.
          (Video.Workloads.parametric ~seconds:1.0 ~base_level:(40 + (30 * i))
             ~highlight_peak:(150 + (12 * i)) ()))
  in
  Obs.with_enabled (fun () ->
      let r =
        Fleet.Scheduler.run
          { Fleet.Scheduler.default_config with Fleet.Scheduler.shards = 2 }
          ~session_config:
            (Streaming.Session.default_config ~device:Display.Device.ipaq_h5555)
          ~clips
          ~load:{ Fleet.Load.default with Fleet.Load.sessions = 12 }
      in
      check int "every fleet session completed" 12 r.Fleet.Scheduler.completed;
      (* ... plus one clamped sample on a private registry: the guard's
         synthetic family only shows once it has counted something. *)
      Obs.Metrics.Histogram.observe
        (Obs.Registry.histogram ~registry:(Obs.Registry.create ())
           "scrape_manifest_seconds" [])
        Float.nan);
  check (Alcotest.list string) "scrape families" scrape_manifest
    (List.map
       (fun (f : Obs.Registry.family_snapshot) -> f.Obs.Registry.family)
       (Obs.Registry.snapshot ()))

let () =
  Alcotest.run "obs"
    [
      ( "counter",
        [
          Alcotest.test_case "basic semantics" `Quick test_counter_basic;
          Alcotest.test_case "disabled drops updates" `Quick
            test_counter_disabled_is_dropped;
          Alcotest.test_case "concurrent increments" `Quick test_counter_concurrent;
        ] );
      ( "gauge",
        [
          Alcotest.test_case "set/add/reset" `Quick test_gauge;
          Alcotest.test_case "concurrent add" `Quick test_gauge_concurrent_add;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket semantics" `Quick test_histogram_buckets;
          Alcotest.test_case "rejects bad buckets" `Quick
            test_histogram_rejects_bad_buckets;
        ] );
      ( "registry",
        [
          Alcotest.test_case "get-or-create" `Quick test_registry_get_or_create;
          Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "snapshot and reset" `Quick
            test_registry_snapshot_and_reset;
          Alcotest.test_case "JSON round-trip" `Quick test_registry_json_roundtrip;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic within and across domains" `Quick
            test_clock_monotonic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and timing" `Quick
            test_span_nesting_and_timing;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "disabled records nothing" `Quick
            test_span_disabled_records_nothing;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
        ] );
      ( "json",
        [
          Alcotest.test_case "string escaping round-trip" `Quick
            test_json_string_escaping;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "session report identical with obs on/off" `Quick
            test_session_report_unchanged_by_obs;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "chaos-warm journal and SLO verdicts" `Quick
            test_chaos_warm_goldens;
        ] );
      ( "scrape",
        [ Alcotest.test_case "family manifest" `Quick test_scrape_manifest ] );
    ]

(* Tests for the online health-monitoring layer: quantile sketches,
   sliding windows, the SLO engine and the OpenMetrics exposition. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let flt = Alcotest.float 1e-9

let with_monitoring f =
  Obs.with_enabled @@ fun () ->
  Obs.enable_monitoring ();
  Fun.protect f ~finally:(fun () ->
      Obs.disable_monitoring ();
      Obs.Monitor.uninstall ())

(* --- quantile sketch ----------------------------------------------------- *)

(* Deterministic pseudo-random stream (LCG) so the "shuffled" data set
   is identical on every run. *)
let lcg_stream n =
  let state = ref 123456789 in
  Array.init n (fun _ ->
      state := (1103515245 * !state) + 12345;
      float_of_int (abs !state mod 1_000_000) /. 1000.)

(* The GK guarantee: the returned value's rank is within eps*n of the
   requested rank. The value is always an observed sample, so its true
   rank range is [#(< v), #(<= v)]. *)
let assert_rank_error ~eps ~label data =
  let n = Array.length data in
  let sketch = Obs.Sketch.create ~epsilon:eps () in
  Array.iter (Obs.Sketch.observe sketch) data;
  let sorted = Array.copy data in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      match Obs.Sketch.quantile sketch q with
      | None -> Alcotest.failf "%s: no quantile for q=%g" label q
      | Some v ->
        let below = ref 0 and at_or_below = ref 0 in
        Array.iter
          (fun x ->
            if x < v then incr below;
            if x <= v then incr at_or_below)
          sorted;
        let target = q *. float_of_int n in
        let slack = (eps *. float_of_int n) +. 1. in
        let lo = float_of_int !below -. slack
        and hi = float_of_int !at_or_below +. slack in
        if not (target >= lo && target <= hi) then
          Alcotest.failf
            "%s: q=%g returned %g with rank range [%d,%d], target %.1f \
             outside +/- %.1f"
            label q v !below !at_or_below target slack)
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99 ]

let test_sketch_accuracy () =
  List.iter
    (fun n ->
      assert_rank_error ~eps:0.01 ~label:(Printf.sprintf "ascending n=%d" n)
        (Array.init n float_of_int);
      assert_rank_error ~eps:0.01 ~label:(Printf.sprintf "descending n=%d" n)
        (Array.init n (fun i -> float_of_int (n - i)));
      assert_rank_error ~eps:0.01 ~label:(Printf.sprintf "shuffled n=%d" n)
        (lcg_stream n);
      assert_rank_error ~eps:0.05 ~label:(Printf.sprintf "eps=.05 n=%d" n)
        (lcg_stream n);
      (* Heavy duplication: a clip whose metric pins to few values. *)
      assert_rank_error ~eps:0.01 ~label:(Printf.sprintf "clustered n=%d" n)
        (Array.init n (fun i -> float_of_int (i mod 7))))
    [ 10; 100; 1_000; 20_000 ]

let test_sketch_min_max_exact () =
  let sketch = Obs.Sketch.create () in
  Array.iter (Obs.Sketch.observe sketch) (lcg_stream 5_000);
  let sorted = lcg_stream 5_000 in
  Array.sort compare sorted;
  check (Alcotest.option flt) "q=0 is the exact minimum" (Some sorted.(0))
    (Obs.Sketch.quantile sketch 0.);
  check (Alcotest.option flt) "q=1 is the exact maximum" (Some sorted.(4999))
    (Obs.Sketch.quantile sketch 1.);
  (* Out-of-range q clamps rather than raising. *)
  check (Alcotest.option flt) "q<0 clamps to min" (Some sorted.(0))
    (Obs.Sketch.quantile sketch (-3.));
  check (Alcotest.option flt) "q>1 clamps to max" (Some sorted.(4999))
    (Obs.Sketch.quantile sketch 7.)

let test_sketch_empty_and_nan () =
  let sketch = Obs.Sketch.create () in
  check (Alcotest.option flt) "empty sketch has no quantiles" None
    (Obs.Sketch.quantile sketch 0.5);
  Obs.Sketch.observe sketch Float.nan;
  check int "NaN is dropped" 0 (Obs.Sketch.count sketch);
  Obs.Sketch.observe sketch 1.5;
  Obs.Sketch.observe sketch (-2.5);
  check int "negatives are legal at sketch level" 2 (Obs.Sketch.count sketch);
  check (Alcotest.option flt) "min is the negative" (Some (-2.5))
    (Obs.Sketch.quantile sketch 0.);
  Obs.Sketch.reset sketch;
  check int "reset empties" 0 (Obs.Sketch.count sketch);
  check (Alcotest.option flt) "reset drops quantiles" None
    (Obs.Sketch.quantile sketch 0.5)

let test_sketch_epsilon_validation () =
  Alcotest.check_raises "zero epsilon"
    (Invalid_argument "Obs.Sketch.create: epsilon must be in (0, 0.5)")
    (fun () -> ignore (Obs.Sketch.create ~epsilon:0. ()));
  Alcotest.check_raises "huge epsilon"
    (Invalid_argument "Obs.Sketch.create: epsilon must be in (0, 0.5)")
    (fun () -> ignore (Obs.Sketch.create ~epsilon:0.6 ()))

let test_sketch_sublinear_space () =
  let n = 50_000 in
  let sketch = Obs.Sketch.create ~epsilon:0.01 () in
  Array.iter (Obs.Sketch.observe sketch) (lcg_stream n);
  ignore (Obs.Sketch.quantile sketch 0.5);
  check int "sees every sample" n (Obs.Sketch.count sketch);
  let tuples = Obs.Sketch.tuple_count sketch in
  if tuples > n / 10 then
    Alcotest.failf "sketch kept %d tuples for %d samples - not compressing"
      tuples n

(* --- sliding windows ----------------------------------------------------- *)

(* Each window reads only the counts that landed in it; the
   whole-session reading divides the lifetime total, which spans every
   window. *)
let test_window_lifetime_total () =
  let m =
    Obs.Monitor.create ~registry:(Obs.Registry.create ())
      ~rules:[ Obs.Slo.of_string_exn "c_per_s < 100" ]
      ()
  in
  for i = 0 to 5 do
    Obs.Monitor.incr m ~by:(i + 1) "c";
    Obs.Monitor.tick m ~now_s:(float_of_int (i + 1))
  done;
  let report = Obs.Monitor.report m in
  check int "six windows closed" 6 report.Obs.Monitor.windows;
  match report.Obs.Monitor.verdicts with
  | [ v ] ->
    check int "every window read" 6 v.Obs.Monitor.evaluated;
    check (Alcotest.option flt) "worst window holds only its own count"
      (Some 6.) v.Obs.Monitor.worst;
    check (Alcotest.option flt) "lifetime total spans every window"
      (Some (21. /. 6.)) v.Obs.Monitor.final
  | l -> Alcotest.failf "expected 1 verdict, got %d" (List.length l)

let test_window_gauge_carries_over () =
  let m =
    Obs.Monitor.create ~registry:(Obs.Registry.create ())
      ~rules:
        [ Obs.Slo.of_string_exn "g == 42"; Obs.Slo.of_string_exn "c_per_s == 0" ]
      ()
  in
  Obs.Monitor.set_gauge m "g" 42.;
  Obs.Monitor.incr m "c";
  Obs.Monitor.tick m ~now_s:1.;
  Obs.Monitor.tick m ~now_s:2.;
  match (Obs.Monitor.report m).Obs.Monitor.verdicts with
  | [ gauge; counter ] ->
    check int "gauge visible in its window and carried into the next" 2
      gauge.Obs.Monitor.evaluated;
    check int "carried gauge holds" 0 gauge.Obs.Monitor.breached;
    check (Alcotest.option flt) "final gauge reading" (Some 42.)
      gauge.Obs.Monitor.final;
    check int "counter read in both windows" 2 counter.Obs.Monitor.evaluated;
    check int "counter does not carry" 1 counter.Obs.Monitor.breached
  | l -> Alcotest.failf "expected 2 verdicts, got %d" (List.length l)

(* --- SLO parsing --------------------------------------------------------- *)

let rule_of s =
  match Obs.Slo.parse_line s with
  | Ok (Some r) -> r
  | Ok None -> Alcotest.failf "rule %S parsed to nothing" s
  | Error e -> Alcotest.failf "rule %S rejected: %s" s e

let test_slo_selectors () =
  let r = rule_of "streaming_frame_latency_seconds_p99 < 0.25" in
  check string "quantile metric" "streaming_frame_latency_seconds" r.Obs.Slo.metric;
  (match r.Obs.Slo.stat with
  | Obs.Slo.Quantile q -> check flt "p99" 0.99 q
  | _ -> Alcotest.fail "expected quantile stat");
  (match (rule_of "x_p999 <= 1").Obs.Slo.stat with
  | Obs.Slo.Quantile q -> check flt "p999" 0.999 q
  | _ -> Alcotest.fail "expected quantile stat");
  (match (rule_of "x_p5 <= 1").Obs.Slo.stat with
  | Obs.Slo.Quantile q -> check flt "p5 means 0.5" 0.5 q
  | _ -> Alcotest.fail "expected quantile stat");
  let r = rule_of "backlight_switches_per_s < 6" in
  check string "rate metric strips suffix" "backlight_switches" r.Obs.Slo.metric;
  check bool "rate stat" true (r.Obs.Slo.stat = Obs.Slo.Rate_per_s);
  let r = rule_of "deadline_miss_rate >= 0" in
  check string "ratio metric strips suffix" "deadline_miss" r.Obs.Slo.metric;
  check bool "ratio stat" true (r.Obs.Slo.stat = Obs.Slo.Ratio_per_frame);
  let r = rule_of "power_cpu_mj < 2000" in
  check string "gauge keeps full name" "power_cpu_mj" r.Obs.Slo.metric;
  check bool "gauge stat" true (r.Obs.Slo.stat = Obs.Slo.Last);
  check flt "threshold parsed" 2000. r.Obs.Slo.threshold

let test_slo_document_parse () =
  let doc =
    "# a comment\n\n  deadline_miss_rate < 0.05  # trailing comment\n\
     backlight_switches_per_s < 6\n"
  in
  (match Obs.Slo.parse doc with
  | Ok rules -> check int "two rules survive comments/blanks" 2 (List.length rules)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Obs.Slo.parse "x < 1\ny !! 2\n" with
  | Error e ->
    check bool "error carries 1-based line number" true
      (String.length e >= 7 && String.sub e 0 7 = "line 2:")
  | Ok _ -> Alcotest.fail "bad operator accepted");
  (match Obs.Slo.parse_line "x < pony" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad threshold accepted");
  (match Obs.Slo.parse_line "x < 1 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "extra tokens accepted");
  check int "defaults cover the paper gates" 4
    (List.length (Obs.Slo.defaults ~quality:0.1))

(* --- monitor windows and verdicts ---------------------------------------- *)

(* Drive a synthetic 3-second feed at 10 frames/s: a clean second, a
   second with 4 deadline misses, a clean second with 3 switches. *)
let feed_synthetic m =
  for i = 0 to 29 do
    let second = i / 10 in
    Obs.Monitor.incr m Obs.Monitor.frames_series;
    if second = 1 && i mod 10 < 4 then Obs.Monitor.incr m "deadline_miss";
    if second = 2 && i mod 10 < 3 then Obs.Monitor.incr m "backlight_switches";
    Obs.Monitor.tick m ~now_s:(float_of_int (i + 1) /. 10.)
  done

let test_monitor_burn_rate () =
  let rules =
    [
      Obs.Slo.of_string_exn "deadline_miss_rate < 0.2";
      Obs.Slo.of_string_exn "backlight_switches_per_s < 10";
    ]
  in
  let m = Obs.Monitor.create ~registry:(Obs.Registry.create ()) ~rules () in
  feed_synthetic m;
  let report = Obs.Monitor.report m in
  check int "three windows closed" 3 report.Obs.Monitor.windows;
  check flt "duration covered" 3. report.Obs.Monitor.duration_s;
  (match report.Obs.Monitor.verdicts with
  | [ miss; switch ] ->
    check int "miss rule evaluated every window" 3 miss.Obs.Monitor.evaluated;
    check int "exactly the bad window breached" 1 miss.Obs.Monitor.breached;
    check (Alcotest.option flt) "worst window is the 40% one" (Some 0.4)
      miss.Obs.Monitor.worst;
    (* Lifetime: 4 misses over 30 frames. *)
    check (Alcotest.option flt) "final is the lifetime ratio"
      (Some (4. /. 30.))
      miss.Obs.Monitor.final;
    check bool "final within budget" false miss.Obs.Monitor.final_breach;
    check bool "windowed breach still fails the rule" false
      (Obs.Monitor.verdict_ok miss);
    (match miss.Obs.Monitor.breaches with
    | [ b ] ->
      check int "breach annotated with its window" 1 b.Obs.Monitor.window;
      check flt "breach annotated with its close time" 2. b.Obs.Monitor.at_s;
      check flt "breach carries the reading" 0.4 b.Obs.Monitor.value
    | l -> Alcotest.failf "expected 1 breach annotation, got %d" (List.length l));
    check int "switch rule clean" 0 switch.Obs.Monitor.breached;
    check (Alcotest.option flt) "switch worst window" (Some 3.)
      switch.Obs.Monitor.worst;
    check bool "switch rule ok" true (Obs.Monitor.verdict_ok switch)
  | l -> Alcotest.failf "expected 2 verdicts, got %d" (List.length l));
  check bool "report unhealthy on any breach" false (Obs.Monitor.healthy report)

let test_monitor_scene_cut_short_window () =
  let rules = [ Obs.Slo.of_string_exn "backlight_switches_per_s < 3" ] in
  let m = Obs.Monitor.create ~registry:(Obs.Registry.create ()) ~rules () in
  (* Two switches in the first half-second, then a scene cut: the
     0.5 s window must divide by its own duration (4/s, breach), not
     the nominal second. *)
  Obs.Monitor.incr m "backlight_switches";
  Obs.Monitor.incr m "backlight_switches";
  Obs.Monitor.cut m ~now_s:0.5;
  Obs.Monitor.tick m ~now_s:1.5;
  let report = Obs.Monitor.report m in
  match report.Obs.Monitor.verdicts with
  | [ v ] ->
    check int "short window plus the rest" 2 v.Obs.Monitor.evaluated;
    check int "short window breached" 1 v.Obs.Monitor.breached;
    check (Alcotest.option flt) "rate uses the real 0.5s duration" (Some 4.)
      v.Obs.Monitor.worst
  | l -> Alcotest.failf "expected 1 verdict, got %d" (List.length l)

let test_monitor_final_only_evaluation () =
  (* Gauge and quantile rules still gate a run that never ticks the
     clock (annotate-style runs have no playback loop). *)
  with_monitoring @@ fun () ->
  let registry = Obs.Registry.create () in
  let h = Obs.Registry.histogram ~registry ~buckets:[| 0.1; 1. |] "lat_seconds" [] in
  for i = 1 to 100 do
    Obs.Metrics.Histogram.observe h (float_of_int i /. 100.)
  done;
  let rules =
    [
      Obs.Slo.of_string_exn "power_cpu_mj < 100";
      Obs.Slo.of_string_exn "lat_seconds_p50 < 0.1";
    ]
  in
  let m = Obs.Monitor.create ~registry ~rules () in
  Obs.Monitor.set_gauge m "power_cpu_mj" 150.;
  let report = Obs.Monitor.report m in
  check int "no windows ever closed" 0 report.Obs.Monitor.windows;
  (match report.Obs.Monitor.verdicts with
  | [ gauge_v; q_v ] ->
    check int "no windowed evaluations" 0 gauge_v.Obs.Monitor.evaluated;
    check bool "gauge breaches on the final pass" true
      gauge_v.Obs.Monitor.final_breach;
    check (Alcotest.option flt) "final carries the gauge reading" (Some 150.)
      gauge_v.Obs.Monitor.final;
    check bool "median of 0.01..1.0 breaches < 0.1" true
      q_v.Obs.Monitor.final_breach
  | l -> Alcotest.failf "expected 2 verdicts, got %d" (List.length l));
  check bool "unhealthy" false (Obs.Monitor.healthy report)

let test_monitor_determinism_and_json () =
  let run () =
    let rules = Obs.Slo.defaults ~quality:0.1 in
    let m = Obs.Monitor.create ~registry:(Obs.Registry.create ()) ~rules () in
    feed_synthetic m;
    Obs.Json.to_string (Obs.Monitor.report_to_json (Obs.Monitor.report m))
  in
  let a = run () and b = run () in
  check string "identical feeds render identical reports" a b;
  match Obs.Json.of_string a with
  | Error e -> Alcotest.failf "report JSON unparseable: %s" e
  | Ok json ->
    check bool "healthy flag serialised" true
      (Obs.Json.member "healthy" json <> None);
    check bool "rules serialised" true (Obs.Json.member "rules" json <> None)

let test_monitor_install_helpers_noop_when_absent () =
  Obs.with_enabled @@ fun () ->
  Obs.Monitor.uninstall ();
  (* Must be safe to call from instrumented code with no monitor. *)
  Obs.Monitor.count "frames";
  Obs.Monitor.gauge "power_cpu_mj" 1.;
  Obs.Monitor.advance ~now_s:1.;
  Obs.Monitor.scene_cut ~now_s:2.;
  check bool "nothing installed" true (Obs.Monitor.installed () = None);
  let m = Obs.Monitor.create ~registry:(Obs.Registry.create ()) () in
  Obs.Monitor.install m;
  check bool "install flips the monitor switch" true (Obs.monitoring ());
  Obs.Monitor.count "frames";
  Obs.Monitor.advance ~now_s:1.5;
  Obs.Monitor.uninstall ();
  check bool "uninstall flips it back" false (Obs.monitoring ());
  let report = Obs.Monitor.report m in
  check bool "the installed feed landed" true (report.Obs.Monitor.windows >= 1)

(* --- NaN/negative guard (satellite) -------------------------------------- *)

let test_histogram_nan_guard () =
  Obs.with_enabled @@ fun () ->
  Obs.Registry.reset ();
  let before = Obs.Metrics.dropped_samples_total () in
  let h =
    Obs.histogram ~buckets:[| 1.; 2. |] "guard_test_seconds"
      [ ("case", "nan") ]
  in
  Obs.Metrics.Histogram.observe h Float.nan;
  Obs.Metrics.Histogram.observe h (-3.);
  Obs.Metrics.Histogram.observe h 1.5;
  check int "count includes clamped samples" 3 (Obs.Metrics.Histogram.count h);
  check flt "clamped samples add 0 to the sum" 1.5 (Obs.Metrics.Histogram.sum h);
  check int "two drops recorded" (before + 2) (Obs.Metrics.dropped_samples_total ());
  (* The default-registry snapshot surfaces the synthetic family. *)
  let snap = Obs.Registry.snapshot () in
  (match
     List.find_opt
       (fun (f : Obs.Registry.family_snapshot) ->
         f.Obs.Registry.family = "obs_dropped_samples_total")
       snap
   with
  | Some f -> (
    match f.Obs.Registry.series with
    | [ { Obs.Registry.value = Obs.Registry.Counter_v n; _ } ] ->
      check bool "synthetic counter carries the drops" true (n >= 2)
    | _ -> Alcotest.fail "unexpected synthetic family shape")
  | None -> Alcotest.fail "obs_dropped_samples_total missing from snapshot");
  (* Reset clears it so later snapshot tests see a clean registry. *)
  Obs.Registry.reset ();
  check int "reset clears the drop count" 0 (Obs.Metrics.dropped_samples_total ())

(* --- OpenMetrics exposition ---------------------------------------------- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let assert_contains ~label text needle =
  if not (contains ~needle text) then
    Alcotest.failf "%s: missing %S in:\n%s" label needle text

let test_openmetrics_format () =
  with_monitoring @@ fun () ->
  let registry = Obs.Registry.create () in
  let c =
    Obs.Registry.counter ~registry ~help:"Things done" "things_done_total"
      [ ("kind", "weird \"quoted\"\\slash\nnewline") ]
  in
  Obs.Metrics.Counter.incr c ~by:2;
  let g = Obs.Registry.gauge ~registry ~help:"A level" "level" [] in
  Obs.Metrics.Gauge.set g 1.5;
  let h =
    Obs.Registry.histogram ~registry ~help:"Latency" ~buckets:[| 0.1; 0.5; 1. |]
      "lat_seconds" []
  in
  List.iter (Obs.Metrics.Histogram.observe h) [ 0.05; 0.3; 0.7; 2.0 ];
  let text =
    Obs.Openmetrics.render
      ~quantiles:(Obs.Registry.quantiles ~registry ())
      (Obs.Registry.snapshot ~registry ())
  in
  assert_contains ~label:"counter TYPE drops _total" text
    "# TYPE things_done counter";
  assert_contains ~label:"counter sample keeps _total" text "things_done_total{";
  assert_contains ~label:"label escaping" text
    "kind=\"weird \\\"quoted\\\"\\\\slash\\nnewline\"";
  assert_contains ~label:"counter value" text "} 2\n";
  assert_contains ~label:"gauge" text "# TYPE level gauge";
  assert_contains ~label:"gauge value" text "level 1.5";
  assert_contains ~label:"histogram TYPE" text "# TYPE lat_seconds histogram";
  (* Buckets must be cumulative: 1, 2, 3 then +Inf carrying the count. *)
  assert_contains ~label:"cumulative b1" text "lat_seconds_bucket{le=\"0.1\"} 1";
  assert_contains ~label:"cumulative b2" text "lat_seconds_bucket{le=\"0.5\"} 2";
  assert_contains ~label:"cumulative b3" text "lat_seconds_bucket{le=\"1\"} 3";
  assert_contains ~label:"+Inf is total count" text
    "lat_seconds_bucket{le=\"+Inf\"} 4";
  assert_contains ~label:"sum" text "lat_seconds_sum 3.05";
  assert_contains ~label:"count" text "lat_seconds_count 4";
  assert_contains ~label:"summary section" text
    "# TYPE lat_seconds_quantiles summary";
  assert_contains ~label:"p50 series" text
    "lat_seconds_quantiles{quantile=\"0.5\"}";
  check bool "ends with EOF marker" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n")

let test_openmetrics_deterministic () =
  with_monitoring @@ fun () ->
  let build () =
    let registry = Obs.Registry.create () in
    let c = Obs.Registry.counter ~registry "reqs_total" [ ("op", "r") ] in
    Obs.Metrics.Counter.incr c;
    let h = Obs.Registry.histogram ~registry ~buckets:[| 1. |] "t_seconds" [] in
    List.iter (Obs.Metrics.Histogram.observe h) [ 0.5; 1.5; 0.25 ];
    Obs.Openmetrics.render
      ~quantiles:(Obs.Registry.quantiles ~registry ())
      (Obs.Registry.snapshot ~registry ())
  in
  check string "byte-identical across runs" (build ()) (build ())

(* --- end-to-end through Session.run -------------------------------------- *)

let small_clip () =
  Video.Clip_gen.render ~width:32 ~height:24 ~fps:8. Video.Workloads.officexp

let run_session_with_rules rules =
  with_monitoring @@ fun () ->
  Obs.Registry.reset ();
  Obs.Trace.reset ();
  let m = Obs.Monitor.create ~rules () in
  Obs.Monitor.install m;
  Fun.protect ~finally:(fun () -> Obs.Monitor.uninstall ()) @@ fun () ->
  let config =
    Streaming.Session.default_config ~device:Display.Device.ipaq_h5555
  in
  (match Streaming.Session.run config (small_clip ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "session failed: %s" e);
  Obs.Monitor.report m

let test_session_monitored_healthy () =
  let report = run_session_with_rules (Obs.Slo.defaults ~quality:0.10) in
  check bool "windows were closed" true (report.Obs.Monitor.windows > 0)
  ;
  (match
     List.find_opt
       (fun (v : Obs.Monitor.verdict) ->
         v.Obs.Monitor.rule.Obs.Slo.metric = "streaming_frame_latency_seconds")
       report.Obs.Monitor.verdicts
   with
  | Some v ->
    check bool "latency sketch produced a final p99" true
      (v.Obs.Monitor.final <> None)
  | None -> Alcotest.fail "latency rule missing from report");
  (match
     List.find_opt
       (fun (v : Obs.Monitor.verdict) ->
         v.Obs.Monitor.rule.Obs.Slo.metric = "annot_clip_fraction")
       report.Obs.Monitor.verdicts
   with
  | Some v ->
    (* The solver guarantees clip fraction <= budget, and the sketch
       only returns observed values, so this cannot breach. *)
    check bool "clip-fraction p95 within the quality budget" true
      (Obs.Monitor.verdict_ok v)
  | None -> Alcotest.fail "clip-fraction rule missing from report");
  check bool "default SLOs hold on the seeded session" true
    (Obs.Monitor.healthy report)

let test_session_monitored_breach () =
  (* frames_per_s is ~8 by construction, so this rule must breach in
     every window - the deliberate-breach path of the acceptance
     criteria. *)
  let report =
    run_session_with_rules [ Obs.Slo.of_string_exn "frames_per_s < 1" ]
  in
  (match report.Obs.Monitor.verdicts with
  | [ v ] ->
    check bool "every window breaches" true
      (v.Obs.Monitor.breached = v.Obs.Monitor.evaluated
      && v.Obs.Monitor.evaluated > 0);
    check bool "final rate also breaches" true v.Obs.Monitor.final_breach;
    check bool "annotations capped at 8" true
      (List.length v.Obs.Monitor.breaches <= 8)
  | l -> Alcotest.failf "expected 1 verdict, got %d" (List.length l));
  check bool "unhealthy" false (Obs.Monitor.healthy report)

let test_sketches_off_without_monitoring () =
  Obs.with_enabled @@ fun () ->
  Obs.disable_monitoring ();
  let registry = Obs.Registry.create () in
  let h = Obs.Registry.histogram ~registry ~buckets:[| 1. |] "plain_seconds" [] in
  Obs.Metrics.Histogram.observe h 0.5;
  check int "bucket path still counts" 1 (Obs.Metrics.Histogram.count h);
  check int "sketch untouched while monitoring is off" 0
    (Obs.Metrics.Histogram.sketch_count h);
  check (Alcotest.option flt) "no quantiles without monitoring" None
    (Obs.Metrics.Histogram.quantile h 0.5)

let () =
  Alcotest.run "monitor"
    [
      ( "sketch",
        [
          Alcotest.test_case "rank error within epsilon" `Quick
            test_sketch_accuracy;
          Alcotest.test_case "exact min/max, clamped q" `Quick
            test_sketch_min_max_exact;
          Alcotest.test_case "empty, NaN, reset" `Quick test_sketch_empty_and_nan;
          Alcotest.test_case "epsilon validation" `Quick
            test_sketch_epsilon_validation;
          Alcotest.test_case "sublinear space" `Quick test_sketch_sublinear_space;
        ] );
      ( "window",
        [
          Alcotest.test_case "lifetime total spans windows" `Quick
            test_window_lifetime_total;
          Alcotest.test_case "gauge carry-over" `Quick
            test_window_gauge_carries_over;
        ] );
      ( "slo",
        [
          Alcotest.test_case "selector suffixes" `Quick test_slo_selectors;
          Alcotest.test_case "document parse and errors" `Quick
            test_slo_document_parse;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "burn-rate verdicts" `Quick test_monitor_burn_rate;
          Alcotest.test_case "scene cut closes short windows" `Quick
            test_monitor_scene_cut_short_window;
          Alcotest.test_case "final-only evaluation" `Quick
            test_monitor_final_only_evaluation;
          Alcotest.test_case "deterministic report JSON" `Quick
            test_monitor_determinism_and_json;
          Alcotest.test_case "global install helpers" `Quick
            test_monitor_install_helpers_noop_when_absent;
        ] );
      ( "guard",
        [
          Alcotest.test_case "NaN/negative clamp and synthetic family" `Quick
            test_histogram_nan_guard;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "format and escaping" `Quick test_openmetrics_format;
          Alcotest.test_case "deterministic rendering" `Quick
            test_openmetrics_deterministic;
        ] );
      ( "session",
        [
          Alcotest.test_case "default SLOs hold, sketches feed" `Quick
            test_session_monitored_healthy;
          Alcotest.test_case "deliberate breach fails" `Quick
            test_session_monitored_breach;
          Alcotest.test_case "sketches off without monitoring" `Quick
            test_sketches_off_without_monitoring;
        ] );
    ]

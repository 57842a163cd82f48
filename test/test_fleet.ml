(* Tests for the fleet layer: the consistent-hash ring, the load
   generator, and the deterministic shard scheduler. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let device = Display.Device.ipaq_h5555

(* --- Chash ---------------------------------------------------------------- *)

let synthetic_keys n = List.init n (fun i -> Printf.sprintf "clip-%04d" i)

let test_chash_deterministic () =
  let a = Fleet.Chash.create ~shards:8 () in
  let b = Fleet.Chash.create ~shards:8 () in
  List.iter
    (fun key ->
      check int ("stable owner for " ^ key) (Fleet.Chash.lookup a key)
        (Fleet.Chash.lookup b key))
    (synthetic_keys 500)

let test_chash_distribution () =
  let shards = 8 in
  let ring = Fleet.Chash.create ~shards () in
  let counts = Array.make shards 0 in
  List.iter
    (fun key ->
      let s = Fleet.Chash.lookup ring key in
      check bool "in range" true (s >= 0 && s < shards);
      counts.(s) <- counts.(s) + 1)
    (synthetic_keys 10_000);
  Array.iteri
    (fun s c ->
      check bool
        (Printf.sprintf "shard %d owns a sane share (%d keys)" s c)
        true
        (c > 0 && c < 10_000 / 2))
    counts

let test_chash_rebalance () =
  (* Growing n -> n+1 shards: only keys claimed by the new shard's
     virtual nodes move, about 1/(n+1) of the population — the cache
     survival property a modulo assignment would not have. *)
  let n = 4 in
  let before = Fleet.Chash.create ~shards:n () in
  let after = Fleet.Chash.create ~shards:(n + 1) () in
  let keys = synthetic_keys 10_000 in
  let moved = ref 0 in
  List.iter
    (fun key ->
      let a = Fleet.Chash.lookup before key in
      let b = Fleet.Chash.lookup after key in
      if a <> b then begin
        incr moved;
        check int ("moves only to the new shard: " ^ key) n b
      end)
    keys;
  let fraction = float_of_int !moved /. float_of_int (List.length keys) in
  let expected = 1. /. float_of_int (n + 1) in
  check bool
    (Printf.sprintf "moved fraction %.3f near 1/%d" fraction (n + 1))
    true
    (fraction > expected /. 3. && fraction < expected *. 2.)

let test_chash_validation () =
  Alcotest.check_raises "no shards"
    (Invalid_argument "Fleet.Chash.create: shards must be >= 1") (fun () ->
      ignore (Fleet.Chash.create ~shards:0 ()));
  Alcotest.check_raises "no vnodes"
    (Invalid_argument "Fleet.Chash.create: vnodes must be >= 1") (fun () ->
      ignore (Fleet.Chash.create ~vnodes:0 ~shards:2 ()))

(* --- Load ----------------------------------------------------------------- *)

let test_load_parse () =
  match
    Fleet.Load.parse
      "# a profile\n\
       arrival = closed\n\
       sessions = 500\n\
       concurrency = 16\n\
       zipf_s = 0.8  # inline comment\n\
       seed = 11\n"
  with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check bool "closed loop" true (t.Fleet.Load.arrival = Fleet.Load.Closed_loop);
    check int "sessions" 500 t.Fleet.Load.sessions;
    check int "concurrency" 16 t.Fleet.Load.concurrency;
    check int "seed" 11 t.Fleet.Load.seed

let test_load_parse_rejects () =
  let bad text =
    match Fleet.Load.parse text with Ok _ -> false | Error _ -> true
  in
  check bool "unknown key" true (bad "frobnicate = 3\n");
  check bool "bad arrival" true (bad "arrival = sometimes\n");
  check bool "no sessions" true (bad "sessions = 0\n");
  check bool "bad amplitude" true (bad "diurnal_amplitude = 1.5\n");
  check bool "missing =" true (bad "sessions 5\n")

let test_load_plan_deterministic () =
  let load = { Fleet.Load.default with Fleet.Load.sessions = 400 } in
  let a = Fleet.Load.plan load ~catalog:8 in
  let b = Fleet.Load.plan load ~catalog:8 in
  check (Alcotest.array int) "same clips" a.Fleet.Load.clip_of b.Fleet.Load.clip_of;
  check (Alcotest.array (Alcotest.float 0.)) "same arrivals"
    a.Fleet.Load.arrival_s b.Fleet.Load.arrival_s

let test_load_plan_shapes () =
  let load =
    { Fleet.Load.default with Fleet.Load.sessions = 2_000; zipf_s = 1.1 }
  in
  let plan = Fleet.Load.plan load ~catalog:8 in
  (* Zipf skew: the head clip strictly outdraws the tail clip. *)
  let count c =
    Array.fold_left
      (fun acc x -> if x = c then acc + 1 else acc)
      0 plan.Fleet.Load.clip_of
  in
  check bool "head beats tail" true (count 0 > count 7);
  (* Open-loop arrivals are non-decreasing and strictly positive. *)
  let ok = ref true in
  Array.iteri
    (fun i t ->
      if t <= 0. then ok := false;
      if i > 0 && t < plan.Fleet.Load.arrival_s.(i - 1) then ok := false)
    plan.Fleet.Load.arrival_s;
  check bool "arrivals non-decreasing" true !ok;
  (* Closed loop: no exogenous arrival times. *)
  let closed =
    Fleet.Load.plan
      { load with Fleet.Load.arrival = Fleet.Load.Closed_loop }
      ~catalog:8
  in
  Array.iter
    (fun t -> check (Alcotest.float 0.) "zero arrival" 0. t)
    closed.Fleet.Load.arrival_s;
  (* Reshaping arrivals never changes clip choice (and so sharding). *)
  check (Alcotest.array int) "clip choice independent of arrival shape"
    plan.Fleet.Load.clip_of closed.Fleet.Load.clip_of

let test_load_rate_modulation () =
  let base = { Fleet.Load.default with Fleet.Load.rate_per_s = 100. } in
  let diurnal =
    { base with Fleet.Load.diurnal_amplitude = 0.4; diurnal_period_s = 100. }
  in
  (* Peak of the sine (quarter period) vs the trough (three quarters). *)
  check bool "diurnal peak above mean" true (Fleet.Load.rate_at diurnal 25. > 130.);
  check bool "diurnal trough below mean" true (Fleet.Load.rate_at diurnal 75. < 70.);
  let spiky =
    {
      base with
      Fleet.Load.spike_at_s = Some 50.;
      spike_factor = 5.;
      spike_width_s = 10.;
    }
  in
  check bool "inside the flash crowd" true (Fleet.Load.rate_at spiky 50. > 400.);
  check bool "outside the flash crowd" true (Fleet.Load.rate_at spiky 70. < 110.)

(* --- Scheduler ------------------------------------------------------------ *)

(* A small catalog of tiny clips: the scheduler's cost is dominated by
   stepping session machines, so keep frames small and few. *)
let catalog =
  Array.init 6 (fun i ->
      Video.Clip_gen.render ~width:16 ~height:12 ~fps:8.
        (Video.Workloads.parametric ~seconds:1.0
           ~base_level:(40 + (30 * i))
           ~highlight_peak:(150 + (12 * i))
           ()))

let session_config = Streaming.Session.default_config ~device

let small_load =
  {
    Fleet.Load.default with
    Fleet.Load.sessions = 300;
    rate_per_s = 60.;
    diurnal_amplitude = 0.2;
    diurnal_period_s = 3.;
    spike_at_s = Some 2.5;
    spike_factor = 3.;
    spike_width_s = 1.;
  }

let small_config =
  {
    Fleet.Scheduler.default_config with
    Fleet.Scheduler.shards = 3;
    capacity = 24;
    queue_limit = 8;
  }

let run_fleet ?pool () =
  Fleet.Scheduler.run ?pool small_config ~session_config ~clips:catalog
    ~load:small_load

let fingerprint (r : Fleet.Scheduler.report) =
  ( Fleet.Scheduler.journal r,
    r.Fleet.Scheduler.completed,
    r.Fleet.Scheduler.shed,
    r.Fleet.Scheduler.ticks,
    r.Fleet.Scheduler.sessions_per_sim_second,
    Array.map
      (fun (sr : Fleet.Scheduler.shard_report) ->
        (sr.Fleet.Scheduler.assigned, sr.Fleet.Scheduler.completed))
      r.Fleet.Scheduler.shard_reports )

let test_scheduler_deterministic_across_domains () =
  (* The tentpole property: same seed and config give byte-identical
     journals and identical reports at 1, 2 and 8 domains, and across
     two runs at the same domain count. *)
  let sequential = fingerprint (run_fleet ()) in
  let again = fingerprint (run_fleet ()) in
  let with_domains n =
    Par.Pool.with_pool ~domains:n (fun pool -> fingerprint (run_fleet ~pool ()))
  in
  let j, _, _, _, _, _ = sequential in
  check bool "journal non-trivial" true (String.length j > 64);
  check bool "rerun identical" true (sequential = again);
  check bool "2 domains identical" true (sequential = with_domains 2);
  check bool "8 domains identical" true (sequential = with_domains 8)

let test_scheduler_accounts_every_session () =
  let r = run_fleet () in
  check int "admitted + shed = offered" r.Fleet.Scheduler.sessions
    (r.Fleet.Scheduler.completed + r.Fleet.Scheduler.shed);
  check int "no failures on a clean channel" 0 r.Fleet.Scheduler.failed;
  let by_shard =
    Array.fold_left
      (fun acc (sr : Fleet.Scheduler.shard_report) ->
        acc + sr.Fleet.Scheduler.assigned)
      0 r.Fleet.Scheduler.shard_reports
  in
  check int "every session routed to a shard" r.Fleet.Scheduler.sessions by_shard;
  check bool "savings roll up" true
    (r.Fleet.Scheduler.mean_device_savings > 0.1
    && r.Fleet.Scheduler.mean_device_savings < 0.9)

let test_scheduler_sheds_under_overload () =
  (* A flash crowd into tiny shards: the waiting rooms fill and the
     tail is shed — never an exception, never a lost count. *)
  let load =
    { small_load with Fleet.Load.rate_per_s = 2_000.; sessions = 400 }
  in
  let config =
    {
      small_config with
      Fleet.Scheduler.capacity = 4;
      queue_limit = 2;
    }
  in
  let r =
    Fleet.Scheduler.run config ~session_config ~clips:catalog ~load
  in
  check bool "overload sheds" true (r.Fleet.Scheduler.shed > 0);
  check int "shed + completed = offered" r.Fleet.Scheduler.sessions
    (r.Fleet.Scheduler.completed + r.Fleet.Scheduler.shed);
  (* Shed decisions are journaled for the audit trail. *)
  let shed_events =
    List.length
      (List.filter
         (fun (e : Obs.Journal.event) ->
           match e.Obs.Journal.kind with
           | Obs.Journal.Fleet_admission { decision = "shed"; _ } -> true
           | _ -> false)
         r.Fleet.Scheduler.journal_events)
  in
  check int "one journal entry per shed session" r.Fleet.Scheduler.shed
    shed_events

let test_scheduler_closed_loop_concurrency () =
  let load =
    {
      small_load with
      Fleet.Load.arrival = Fleet.Load.Closed_loop;
      sessions = 120;
      concurrency = 5;
    }
  in
  let r =
    Fleet.Scheduler.run small_config ~session_config ~clips:catalog ~load
  in
  check int "closed loop never sheds" 0 r.Fleet.Scheduler.shed;
  check int "every session completes" r.Fleet.Scheduler.sessions
    r.Fleet.Scheduler.completed;
  Array.iter
    (fun (sr : Fleet.Scheduler.shard_report) ->
      check bool
        (Printf.sprintf "shard %d holds at most the concurrency target"
           sr.Fleet.Scheduler.shard)
        true
        (sr.Fleet.Scheduler.peak_in_flight <= 5))
    r.Fleet.Scheduler.shard_reports

let test_scheduler_monitor_rollup () =
  let r = run_fleet () in
  check bool "clean fleet is healthy" true
    (Obs.Monitor.healthy r.Fleet.Scheduler.monitor);
  let report = r.Fleet.Scheduler.monitor in
  check bool "rules were evaluated" true
    (List.exists
       (fun (v : Obs.Monitor.verdict) -> v.Obs.Monitor.evaluated > 0)
       report.Obs.Monitor.verdicts)

let test_scheduler_journal_verifies () =
  (* The concatenated fleet journal must pass the offline V4xx audit:
     every shard block opens with Fleet_shard_start, which resets the
     verifier's monotonic clock. *)
  let r = run_fleet () in
  let diagnostics =
    Check.Artifact.check_journal ~file:"fleet.journal"
      (Fleet.Scheduler.journal r)
  in
  check int "no verifier errors" 0 (Check.Diagnostic.errors diagnostics)

let test_scheduler_cache_counts () =
  (* Each shard's one prepared-stream cache misses once per distinct
     clip it admitted and serves every other admitted session warm.
     The shard's journal says what it admitted: arrivals name the clip,
     admissions the session. *)
  let load =
    { small_load with Fleet.Load.rate_per_s = 2_000.; sessions = 400 }
  in
  let config = { small_config with Fleet.Scheduler.capacity = 4; queue_limit = 2 } in
  let r = Fleet.Scheduler.run config ~session_config ~clips:catalog ~load in
  check bool "the flash crowd sheds" true (r.Fleet.Scheduler.shed > 0);
  Array.iter
    (fun (sr : Fleet.Scheduler.shard_report) ->
      let clip_of = Hashtbl.create 64 in
      let admitted =
        List.filter_map
          (fun (e : Obs.Journal.event) ->
            match e.Obs.Journal.kind with
            | Obs.Journal.Fleet_arrival { session; clip } ->
              Hashtbl.replace clip_of session clip;
              None
            | Obs.Journal.Fleet_admission { session; decision = "admitted"; _ } ->
              Some (Hashtbl.find clip_of session)
            | _ -> None)
          sr.Fleet.Scheduler.events
      in
      let distinct = List.length (List.sort_uniq compare admitted) in
      let ctx what = Printf.sprintf "shard %d: %s" sr.Fleet.Scheduler.shard what in
      check int (ctx "one miss per distinct admitted clip") distinct
        sr.Fleet.Scheduler.cache_misses;
      check int (ctx "hits + misses = admitted sessions") (List.length admitted)
        (sr.Fleet.Scheduler.cache_hits + sr.Fleet.Scheduler.cache_misses))
    r.Fleet.Scheduler.shard_reports

let test_scheduler_validation () =
  Alcotest.check_raises "empty catalog"
    (Invalid_argument "Fleet.Scheduler.run: empty catalog") (fun () ->
      ignore
        (Fleet.Scheduler.run small_config ~session_config ~clips:[||]
           ~load:small_load))

let () =
  Alcotest.run "fleet"
    [
      ( "chash",
        [
          Alcotest.test_case "deterministic" `Quick test_chash_deterministic;
          Alcotest.test_case "distribution" `Quick test_chash_distribution;
          Alcotest.test_case "rebalance moves ~1/(n+1)" `Quick
            test_chash_rebalance;
          Alcotest.test_case "validation" `Quick test_chash_validation;
        ] );
      ( "load",
        [
          Alcotest.test_case "parse" `Quick test_load_parse;
          Alcotest.test_case "parse rejects" `Quick test_load_parse_rejects;
          Alcotest.test_case "plan deterministic" `Quick
            test_load_plan_deterministic;
          Alcotest.test_case "plan shapes" `Quick test_load_plan_shapes;
          Alcotest.test_case "rate modulation" `Quick test_load_rate_modulation;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "deterministic across domains" `Quick
            test_scheduler_deterministic_across_domains;
          Alcotest.test_case "accounts every session" `Quick
            test_scheduler_accounts_every_session;
          Alcotest.test_case "sheds under overload" `Quick
            test_scheduler_sheds_under_overload;
          Alcotest.test_case "closed-loop concurrency" `Quick
            test_scheduler_closed_loop_concurrency;
          Alcotest.test_case "monitor rollup" `Quick test_scheduler_monitor_rollup;
          Alcotest.test_case "journal verifies" `Quick
            test_scheduler_journal_verifies;
          Alcotest.test_case "cache counts" `Quick test_scheduler_cache_counts;
          Alcotest.test_case "validation" `Quick test_scheduler_validation;
        ] );
    ]

(* The resilience control plane: retry-schedule edges (zero budget,
   budget exactly one round, a fully-dead channel), equivalence of the
   transport's NACK loop with and without an explicit default policy,
   the breaker state machine (deterministic lifecycle plus a QCheck
   property over arbitrary outcome sequences), bulkhead admission,
   profile parsing, the ladder walk — and the acceptance sweep: 50
   seeded chaos sessions that must all complete with a report, with
   equal seeds journaling byte-identically. *)

module Retry = Resilience.Retry
module Breaker = Resilience.Breaker
module Bulkhead = Resilience.Bulkhead
module Degrade = Resilience.Degrade
module Profile = Resilience.Profile
module Journal = Obs.Journal

let device = Display.Device.ipaq_h5555

(* --- retry schedules ----------------------------------------------------- *)

(* A schedule whose every attempt costs backoff + 4 ms and never
   finishes — the shape of a NACK round against a hopeless channel. *)
let hopeless policy =
  Retry.run policy ~seed:7 ~init:0
    ~pending:(fun _ -> true)
    ~cost:(fun (a : Retry.attempt) _ -> a.Retry.backoff_s +. 0.004)
    ~step:(fun _ ~now_s:_ n -> n + 1)

let test_retry_zero_budget () =
  let n, stats = hopeless { Retry.default with Retry.budget_s = 0. } in
  Alcotest.(check int) "no attempts" 0 n;
  Alcotest.(check int) "stats agree" 0 stats.Retry.attempts;
  Alcotest.(check bool) "budget exhausted" true stats.Retry.budget_exhausted;
  Alcotest.(check (float 1e-9)) "no time spent" 0. stats.Retry.time_s

let test_retry_budget_exactly_first_round () =
  (* Attempt 0 costs its 2 ms backoff + 4 ms: a budget of exactly that
     admits it (the check is strict: spent + cost > budget rejects),
     one epsilon less does not. *)
  let first_cost = Retry.default.Retry.base_backoff_s +. 0.004 in
  let n, stats = hopeless { Retry.default with Retry.budget_s = first_cost } in
  Alcotest.(check int) "exactly one attempt" 1 n;
  Alcotest.(check (float 1e-9)) "whole budget spent" first_cost
    stats.Retry.time_s;
  Alcotest.(check bool) "then exhausted" true stats.Retry.budget_exhausted;
  let n, stats =
    hopeless { Retry.default with Retry.budget_s = first_cost -. 1e-6 }
  in
  Alcotest.(check int) "one epsilon less: none" 0 n;
  Alcotest.(check bool) "exhausted immediately" true
    stats.Retry.budget_exhausted

let test_retry_round_seed_derivation () =
  Alcotest.(check int) "historical sub-stream" (32 + (3 * 7919))
    (Retry.round_seed ~seed:32 ~round:2)

(* --- the transport's NACK loop on the schedule ---------------------------- *)

let packets =
  Array.init 12 (fun i -> String.make 24 (Char.chr (Char.code 'a' + i)))

let nack ?policy ?breaker ~fault ~budget_s arrival =
  Streaming.Transport.nack_retransmit ?policy ?breaker ~fault
    ~link:Streaming.Netsim.wlan_80211b ~budget_s ~seed:32 ~packets arrival

let test_nack_zero_budget () =
  let fault = Streaming.Fault.bernoulli ~rate:0.4 in
  let arrival = Streaming.Fault.apply fault ~seed:5 packets in
  let out, stats = nack ~fault ~budget_s:0. arrival in
  Alcotest.(check bool) "arrival untouched" true (out = arrival);
  Alcotest.(check int) "no rounds" 0 stats.Streaming.Transport.nack_rounds;
  Alcotest.(check int) "nothing re-sent" 0
    stats.Streaming.Transport.packets_retransmitted

let test_nack_fully_dead_channel () =
  (* Every delivery fails, retransmissions included: the loop must
     re-cross the dead channel, repair nothing, and stop on budget —
     not spin. *)
  let fault = Streaming.Fault.bernoulli ~rate:1.0 in
  let arrival = Streaming.Fault.apply fault ~seed:5 packets in
  Alcotest.(check bool) "channel is dead" true
    (Array.for_all (fun p -> p = None) arrival);
  let out, stats = nack ~fault ~budget_s:0.04 arrival in
  Alcotest.(check bool) "still nothing delivered" true
    (Array.for_all (fun p -> p = None) out);
  Alcotest.(check bool) "rounds were attempted" true
    (stats.Streaming.Transport.nack_rounds > 0);
  Alcotest.(check int) "nothing repaired" 0
    stats.Streaming.Transport.packets_repaired;
  Alcotest.(check bool) "gave up on the deadline" true
    stats.Streaming.Transport.budget_exhausted

let test_nack_default_policy_equivalence () =
  (* The refactor invariant: the historical argument form and the
     explicit default policy are the same schedule, byte for byte. *)
  let fault = Streaming.Fault.gilbert ~mean_loss:0.3 ~burst_length:3. () in
  let arrival = Streaming.Fault.apply fault ~seed:5 packets in
  let out_legacy, stats_legacy = nack ~fault ~budget_s:0.04 arrival in
  let out_policy, stats_policy =
    nack ~policy:Retry.default ~fault ~budget_s:0.04 arrival
  in
  Alcotest.(check bool) "same arrivals" true (out_legacy = out_policy);
  Alcotest.(check bool) "same stats" true (stats_legacy = stats_policy)

(* --- breaker state machine ------------------------------------------------ *)

let quick_config =
  {
    Breaker.failure_threshold = 0.5;
    window = 4;
    min_samples = 2;
    cooldown_s = 0.01;
    probe_quota = 2;
  }

let test_breaker_lifecycle () =
  let b = Breaker.create ~config:quick_config ~name:"t" () in
  Alcotest.(check bool) "starts closed, admits" true (Breaker.allow b ~now_s:0.);
  Breaker.record b ~now_s:0. ~ok:false;
  Breaker.record b ~now_s:0.001 ~ok:false;
  Alcotest.(check string) "two failures trip it" "open"
    (Breaker.state_label (Breaker.state b));
  Alcotest.(check bool) "open rejects" false (Breaker.allow b ~now_s:0.002);
  (* Opened at the second failure (t = 1 ms): 9 ms of the 10 ms
     cooldown remain at t = 2 ms. *)
  (match Breaker.cooldown_remaining b ~now_s:0.002 with
  | Some r -> Alcotest.(check (float 1e-9)) "cooldown runs" 0.009 r
  | None -> Alcotest.fail "expected a cooldown");
  Alcotest.(check bool) "cooldown elapsed: first probe" true
    (Breaker.allow b ~now_s:0.02);
  Alcotest.(check string) "now half-open" "half_open"
    (Breaker.state_label (Breaker.state b));
  Alcotest.(check bool) "second probe" true (Breaker.allow b ~now_s:0.021);
  Alcotest.(check bool) "quota exhausted" false (Breaker.allow b ~now_s:0.022);
  Breaker.record b ~now_s:0.023 ~ok:true;
  Breaker.record b ~now_s:0.024 ~ok:true;
  Alcotest.(check string) "probe quota of successes closes" "closed"
    (Breaker.state_label (Breaker.state b));
  let shape =
    List.map
      (fun (tr : Breaker.transition) ->
        (Breaker.state_code tr.Breaker.from_state,
         Breaker.state_code tr.Breaker.to_state))
      (Breaker.transitions b)
  in
  Alcotest.(check (list (pair int int)))
    "closed -> open -> half-open -> closed"
    [ (0, 2); (2, 1); (1, 0) ]
    shape

let test_breaker_probe_failure_reopens () =
  let b = Breaker.create ~config:quick_config ~name:"t" () in
  Breaker.record b ~now_s:0. ~ok:false;
  Breaker.record b ~now_s:0. ~ok:false;
  ignore (Breaker.allow b ~now_s:0.02);
  Breaker.record b ~now_s:0.02 ~ok:false;
  Alcotest.(check string) "probe failure reopens" "open"
    (Breaker.state_label (Breaker.state b))

let legal_edges = [ (0, 2); (2, 1); (1, 0); (1, 2) ]

(* Drive a breaker with an arbitrary outcome sequence on a 1 ms grid
   and check the transition record: it must chain (no skipped states),
   use only legal edges, and carry non-decreasing timestamps. *)
let prop_breaker_never_skips =
  QCheck2.Test.make ~count:500
    ~name:"breaker transitions chain through legal edges only"
    QCheck2.Gen.(list_size (0 -- 64) bool)
    (fun outcomes ->
      let b = Breaker.create ~config:quick_config ~name:"prop" () in
      List.iteri
        (fun i ok ->
          let now_s = float_of_int i *. 0.001 in
          if Breaker.allow b ~now_s then Breaker.record b ~now_s ~ok)
        outcomes;
      let rec chained from_code at = function
        | [] -> true
        | (tr : Breaker.transition) :: rest ->
          Breaker.state_code tr.Breaker.from_state = from_code
          && List.mem
               ( Breaker.state_code tr.Breaker.from_state,
                 Breaker.state_code tr.Breaker.to_state )
               legal_edges
          && tr.Breaker.at_s >= at
          && chained (Breaker.state_code tr.Breaker.to_state) tr.Breaker.at_s
               rest
      in
      chained 0 0. (Breaker.transitions b))

(* Whatever the quota, a half-open breaker admits exactly that many
   probes before rejecting again. *)
let prop_breaker_probe_quota =
  QCheck2.Test.make ~count:100
    ~name:"half-open admits exactly the probe quota"
    QCheck2.Gen.(1 -- 4)
    (fun quota ->
      let b =
        Breaker.create
          ~config:{ quick_config with Breaker.probe_quota = quota }
          ~name:"prop" ()
      in
      Breaker.record b ~now_s:0. ~ok:false;
      Breaker.record b ~now_s:0. ~ok:false;
      let admitted = ref 0 in
      for i = 0 to quota + 2 do
        if Breaker.allow b ~now_s:(0.02 +. (float_of_int i *. 0.0001)) then
          incr admitted
      done;
      !admitted = quota)

(* --- bulkhead ------------------------------------------------------------- *)

let test_bulkhead_admit_and_shed () =
  let b =
    Bulkhead.create
      ~config:{ Bulkhead.capacity = 1; queue_limit = 0 }
      ~name:"t" ()
  in
  let first = Bulkhead.enter b in
  Alcotest.(check string) "first admitted" "admitted"
    (Bulkhead.decision_label first.Bulkhead.decision);
  let second = Bulkhead.enter b in
  Alcotest.(check string) "saturated compartment sheds" "shed"
    (Bulkhead.decision_label second.Bulkhead.decision);
  Bulkhead.release b;
  let third = Bulkhead.enter b in
  Alcotest.(check string) "freed slot admits again" "admitted"
    (Bulkhead.decision_label third.Bulkhead.decision);
  Bulkhead.release b;
  let a, q, s = Bulkhead.stats b in
  Alcotest.(check (triple int int int)) "lifetime totals" (2, 0, 1) (a, q, s)

let test_bulkhead_run_fallback () =
  let b =
    Bulkhead.create
      ~config:{ Bulkhead.capacity = 1; queue_limit = 0 }
      ~name:"t" ()
  in
  let inner =
    Bulkhead.run b ~shed:(fun () -> "shed")
      (fun () -> Bulkhead.run b ~shed:(fun () -> "shed") (fun () -> "ran"))
  in
  Alcotest.(check string) "nested work is shed, outer runs" "shed" inner;
  let after = Bulkhead.run b ~shed:(fun () -> "shed") (fun () -> "ran") in
  Alcotest.(check string) "slot released afterwards" "ran" after

(* --- degradation ladder --------------------------------------------------- *)

let test_ladder_steps () =
  let l = Degrade.create ~steps:[ Degrade.Stale_cache ] () in
  Alcotest.(check (list string)) "ends forced in, sorted"
    [ "fresh"; "stale"; "full" ]
    (List.map Degrade.label (Degrade.steps l));
  Alcotest.(check string) "disabled rung falls through" "full"
    (Degrade.label (Degrade.next_step l ~from:Degrade.Neighbour_clamp));
  Degrade.note l ~scene:0 Degrade.Fresh;
  Degrade.note l ~scene:1 Degrade.Stale_cache;
  Degrade.note l ~scene:(-1) Degrade.Full_backlight;
  Alcotest.(check int) "depth is the deepest rank" 3 (Degrade.depth l);
  Alcotest.(check (list (pair string int))) "per-rung counts"
    [ ("fresh", 1); ("stale", 1); ("full", 1) ]
    (List.map (fun (s, n) -> (Degrade.label s, n)) (Degrade.taken l))

(* --- profiles ------------------------------------------------------------- *)

let test_profile_parse () =
  match Profile.load ~path:"../examples/default.resilience" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    (match p.Profile.retry with
    | None -> Alcotest.fail "retry group expected"
    | Some r ->
      Alcotest.(check (float 1e-9)) "budget" 0.04 r.Retry.budget_s;
      Alcotest.(check int) "rounds" 16 r.Retry.max_attempts);
    (match p.Profile.breaker with
    | None -> Alcotest.fail "breaker group expected"
    | Some b ->
      Alcotest.(check (float 1e-9)) "cooldown in seconds" 0.01
        b.Breaker.cooldown_s);
    Alcotest.(check (list string)) "ladder order"
      [ "fresh"; "stale"; "clamp"; "full" ]
      (List.map Degrade.label p.Profile.ladder);
    Alcotest.(check (option (float 1e-9))) "watchdog in seconds" (Some 0.04)
      p.Profile.stage_deadline_s;
    Alcotest.(check bool) "not a no-op" false (Profile.is_noop p)

let test_profile_parse_errors () =
  Alcotest.(check bool) "unknown key" true
    (match Profile.parse "frobnicate = 1\n" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "unknown rung" true
    (match Profile.parse "ladder = fresh, sideways\n" with
    | Error _ -> true
    | Ok _ -> false);
  Alcotest.(check bool) "empty profile is a no-op" true
    (match Profile.parse "# nothing\n" with
    | Ok p -> Profile.is_noop p
    | Error _ -> false)

(* --- acceptance: the chaos sweep ------------------------------------------ *)

(* The journal only listens when observability is on — the state the
   CLIs' --journal flag sets up. *)
let () = Obs.enable ()

let chaos_fault =
  {
    (Streaming.Fault.gilbert ~mean_loss:0.08 ~burst_length:3. ()) with
    Streaming.Fault.corrupt_rate = 0.002;
    reorder_rate = 0.02;
    jitter_s = 0.005;
    collapse = Some { Streaming.Fault.at_fraction = 0.5; factor = 0.25 };
  }

let chaos_clip =
  let scene level =
    Video.Profile.scene ~seconds:0.75 ~noise_sigma:0. (Video.Profile.Flat level)
  in
  Video.Clip_gen.render ~width:64 ~height:48 ~fps:8.
    {
      Video.Profile.name = "ladder-accept";
      seed = 23;
      scenes = [ scene 45; scene 210; scene 70; scene 190; scene 55; scene 230 ];
    }

(* The aggressive shipped plane, minus the stale rung's prepared track:
   damage has to walk the ladder past stale, so the sweep exercises the
   deeper rungs and the journal gets Ladder_step events to compare. *)
let chaos_profile =
  match
    Profile.parse
      "retry_budget_s = 0.02\n\
       retry_base_s = 0.001\n\
       retry_multiplier = 3.0\n\
       retry_max_rounds = 6\n\
       breaker_threshold = 0.25\n\
       breaker_window = 4\n\
       breaker_min_samples = 2\n\
       breaker_cooldown_ms = 20\n\
       breaker_probes = 1\n\
       ladder = fresh, clamp, full\n\
       stage_deadline_ms = 20\n"
  with
  | Ok p -> p
  | Error e -> failwith e

let chaos_config seed =
  {
    (Streaming.Session.default_config ~device) with
    Streaming.Session.fault = Some chaos_fault;
    nack_budget_s = 0.04;
    resilience = Some chaos_profile;
    seed;
  }

let journal_of_run seed =
  let j = Journal.create () in
  Journal.install j;
  Fun.protect ~finally:Journal.uninstall (fun () ->
      match Streaming.Session.run (chaos_config seed) chaos_clip with
      | Ok r -> (Journal.to_string j, Journal.events j, r)
      | Error e -> Alcotest.fail ("seed aborted: " ^ e))

let is_ladder_step (e : Journal.event) =
  match e.Journal.kind with Journal.Ladder_step _ -> true | _ -> false

let test_chaos_sweep_never_aborts () =
  (* The acceptance criterion: 50 seeded chaos sessions, every one
     completes with a report — the control plane degrades, it never
     aborts. *)
  for seed = 1 to 50 do
    match Streaming.Session.run (chaos_config seed) chaos_clip with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "seed %d aborted: %s" seed e)
  done

let test_ladder_descent_journal_identity () =
  (* Find a seed whose session walks the ladder, then run it again:
     the two journals must be byte-identical, and the steps taken must
     be journaled. *)
  let rec find seed =
    if seed > 50 then Alcotest.fail "no seed walked the ladder under chaos"
    else
      let bytes, events, report = journal_of_run seed in
      if List.exists is_ladder_step events then (seed, bytes, events, report)
      else find (seed + 1)
  in
  let seed, bytes, events, report = find 1 in
  let bytes', _, _ = journal_of_run seed in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d journals byte-identically twice" seed)
    true
    (String.equal bytes bytes');
  (* Every non-fresh step the session reports corresponds to journaled
     evidence: as many Ladder_step events as degraded scenes (or one
     track-wide event when the whole track fell back). *)
  let steps = List.length (List.filter is_ladder_step events) in
  Alcotest.(check bool) "ladder steps journaled" true (steps > 0);
  Alcotest.(check bool) "steps cover the degraded scenes" true
    (steps >= min 1 report.Streaming.Session.degraded_scenes)

let test_unconfigured_is_instrumentation_neutral () =
  (* With no resilience profile the report is byte-identical with and
     without a journal recording the run, and the control plane is
     down to its default ladder: no breaker, bulkhead or watchdog
     decisions, and every ladder step lands on full backlight. *)
  let config =
    {
      (Streaming.Session.default_config ~device) with
      Streaming.Session.fault = Some chaos_fault;
      seed = 9;
    }
  in
  let plain =
    match Streaming.Session.run config chaos_clip with
    | Ok r -> Format.asprintf "%a" Streaming.Session.pp_report r
    | Error e -> Alcotest.fail e
  in
  let j = Journal.create () in
  Journal.install j;
  let journaled =
    Fun.protect ~finally:Journal.uninstall (fun () ->
        match Streaming.Session.run config chaos_clip with
        | Ok r -> Format.asprintf "%a" Streaming.Session.pp_report r
        | Error e -> Alcotest.fail e)
  in
  Alcotest.(check string) "identical reports" plain journaled;
  Alcotest.(check bool) "and only full-backlight ladder steps recorded" false
    (List.exists
       (fun (e : Journal.event) ->
         match e.Journal.kind with
         | Journal.Ladder_step { step; _ } -> step <> "full"
         | Journal.Breaker_transition _ | Journal.Bulkhead_decision _
         | Journal.Watchdog_trip _ ->
           true
         | _ -> false)
       (Journal.events j))

let () =
  Alcotest.run "resilience"
    [
      ( "retry",
        [
          Alcotest.test_case "zero budget" `Quick test_retry_zero_budget;
          Alcotest.test_case "budget exactly one round" `Quick
            test_retry_budget_exactly_first_round;
          Alcotest.test_case "round seeds" `Quick test_retry_round_seed_derivation;
        ] );
      ( "nack on the schedule",
        [
          Alcotest.test_case "zero budget" `Quick test_nack_zero_budget;
          Alcotest.test_case "fully-dead channel" `Quick
            test_nack_fully_dead_channel;
          Alcotest.test_case "default-policy equivalence" `Quick
            test_nack_default_policy_equivalence;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "lifecycle" `Quick test_breaker_lifecycle;
          Alcotest.test_case "probe failure reopens" `Quick
            test_breaker_probe_failure_reopens;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_breaker_never_skips; prop_breaker_probe_quota ] );
      ( "bulkhead",
        [
          Alcotest.test_case "admit and shed" `Quick test_bulkhead_admit_and_shed;
          Alcotest.test_case "run fallback" `Quick test_bulkhead_run_fallback;
        ] );
      ( "ladder",
        [ Alcotest.test_case "steps and depth" `Quick test_ladder_steps ] );
      ( "profiles",
        [
          Alcotest.test_case "shipped default parses" `Quick test_profile_parse;
          Alcotest.test_case "parse errors" `Quick test_profile_parse_errors;
        ] );
      ( "chaos acceptance",
        [
          Alcotest.test_case "50 seeds, zero aborts" `Slow
            test_chaos_sweep_never_aborts;
          Alcotest.test_case "equal seeds, equal journals" `Quick
            test_ladder_descent_journal_identity;
          Alcotest.test_case "unconfigured is neutral" `Quick
            test_unconfigured_is_instrumentation_neutral;
        ] );
    ]

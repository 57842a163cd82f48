(* Offline verification of annotation streams, decision journals, SLO
   files and fault and resilience profiles. The binary formats are
   judged by their own modules — [Annotation.Encoding.judge] and the
   [Obs.Journal] walk and clock — so the verifier accepts exactly what
   the decoders accept; it maps each problem to a stable code. Nothing
   here runs a session, and every finding is a Diagnostic rather than
   an exception. *)

let err ~file code message =
  Diagnostic.v ~code ~severity:Diagnostic.Error ~file message

let warn ~file code message =
  Diagnostic.v ~code ~severity:Diagnostic.Warning ~file message

(* --- known metric catalog ---------------------------------------------- *)

type known_metrics = { histograms : string list; names : string list }

(* A quantile selector reads a registry histogram; every other
   selector reads a monitor series, which the monitor never looks up
   in the registry — so a counter family is no valid target for it. *)
let known_metrics () =
  let histograms =
    List.filter_map
      (fun (f : Obs.Registry.family_snapshot) ->
        if f.Obs.Registry.kind = Obs.Registry.Histogram then
          Some f.Obs.Registry.family
        else None)
      (Obs.Registry.snapshot ())
  in
  { histograms; names = Obs.Monitor.declared_series () }

(* --- annotation streams ------------------------------------------------ *)

(* [Annotation.Encoding.judge] decides validity, as it does for both
   decoders and the encoder; the verifier reports every problem it
   names under the problem's code. Its own two rules read the header
   the judgement trusts: the off-grid quality warning and the backlight
   register against the catalogue panel. *)

let code : Annotation.Encoding.rule -> string = function
  | Magic -> "V101"
  | Version -> "V102"
  | Truncated -> "V103"
  | Header_crc -> "V104"
  | Field -> "V105"
  | Record_count -> "V107"
  | Record_crc -> "V108"
  | Order -> "V109"
  | Span -> "V110"
  | Compensation -> "V111"
  | Coverage -> "V114"

let check_annotation ?(find_device = Display.Device.find) ~file data =
  let header, problems = Annotation.Encoding.judge data in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun (p : Annotation.Encoding.problem) -> add (err ~file (code p.rule) p.message))
    problems;
  (match header with
  | Error _ -> ()
  | Ok p ->
    (match p.quality with
    | Annotation.Quality_level.Custom f ->
      add
        (warn ~file "V106"
           (Printf.sprintf
              "quality %.0f permille is off the paper's {0,5,10,15,20}%% grid"
              (f *. 1000.)))
    | _ -> ());
    let size = Annotation.Encoding.record_size in
    let first = String.length data - (Array.length p.records * size) in
    Option.iter
      (fun (d : Display.Device.t) ->
        Array.iteri
          (fun i -> function
            | Annotation.Encoding.Intact e when e.register >= d.backlight_levels ->
              add
                (err ~file "V112"
                   (Printf.sprintf
                      "record %d (byte %d): backlight register %d outside panel \
                       range 0..%d"
                      i (first + (i * size)) e.register (d.backlight_levels - 1)))
            | _ -> ())
          p.records)
      (find_device p.device_name));
  List.sort Diagnostic.compare !diags

(* --- SLO files --------------------------------------------------------- *)

(* The set of values satisfying [op threshold], as a closed/open
   interval; two rules on the same selector contradict when their
   intervals miss each other. *)
let interval op t =
  match op with
  | Obs.Slo.Lt -> (neg_infinity, true, t, false)
  | Obs.Slo.Le -> (neg_infinity, true, t, true)
  | Obs.Slo.Gt -> (t, false, infinity, true)
  | Obs.Slo.Ge -> (t, true, infinity, true)
  | Obs.Slo.Eq -> (t, true, t, true)

let compatible a b =
  let lo_a, lo_a_in, hi_a, hi_a_in = interval a.Obs.Slo.op a.Obs.Slo.threshold in
  let lo_b, lo_b_in, hi_b, hi_b_in = interval b.Obs.Slo.op b.Obs.Slo.threshold in
  let lo, lo_in =
    if Float.compare lo_a lo_b > 0 then (lo_a, lo_a_in)
    else if Float.compare lo_b lo_a > 0 then (lo_b, lo_b_in)
    else (lo_a, lo_a_in && lo_b_in)
  in
  let hi, hi_in =
    if Float.compare hi_a hi_b < 0 then (hi_a, hi_a_in)
    else if Float.compare hi_b hi_a < 0 then (hi_b, hi_b_in)
    else (hi_a, hi_a_in && hi_b_in)
  in
  match Float.compare lo hi with
  | c when c < 0 -> true
  | 0 -> lo_in && hi_in
  | _ -> false

let stat_key = function
  | Obs.Slo.Quantile q -> Printf.sprintf "quantile %g" q
  | Obs.Slo.Rate_per_s -> "per-second rate"
  | Obs.Slo.Ratio_per_frame -> "per-frame ratio"
  | Obs.Slo.Last -> "gauge"

let selector_key (r : Obs.Slo.rule) = (r.Obs.Slo.metric, stat_key r.Obs.Slo.stat)

let check_slo ?known ~file text =
  let known =
    match known with Some k -> k | None -> known_metrics ()
  in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let rules = ref [] in
  List.iteri
    (fun i line ->
      let n = i + 1 in
      match Obs.Slo.parse_line line with
      | Error msg ->
        add
          (Diagnostic.v ~code:"V201" ~severity:Diagnostic.Error ~file ~line:n
             msg)
      | Ok None -> ()
      | Ok (Some rule) -> rules := (n, rule) :: !rules)
    (String.split_on_char '\n' text);
  let rules = List.rev !rules in
  if rules = [] && !diags = [] then
    add (warn ~file "V205" "no rules: this SLO file gates nothing");
  let have_catalog = known.histograms <> [] || known.names <> [] in
  if have_catalog then
    List.iter
      (fun (n, (r : Obs.Slo.rule)) ->
        let metric = r.Obs.Slo.metric in
        match r.Obs.Slo.stat with
        | Obs.Slo.Quantile _ ->
          if not (List.mem metric known.histograms) then
            add
              (Diagnostic.v ~code:"V202" ~severity:Diagnostic.Error ~file
                 ~line:n
                 (Printf.sprintf
                    "no histogram family %S for quantile selector %S" metric
                    r.Obs.Slo.source))
        | _ ->
          if not (List.mem metric known.names) then
            add
              (Diagnostic.v ~code:"V202" ~severity:Diagnostic.Error ~file
                 ~line:n
                 (Printf.sprintf "unknown metric %S in rule %S" metric
                    r.Obs.Slo.source)))
      rules;
  let rec pairs = function
    | [] -> ()
    | (n_a, a) :: rest ->
      List.iter
        (fun (n_b, b) ->
          if selector_key a = selector_key b then
            if
              a.Obs.Slo.op = b.Obs.Slo.op
              && Float.compare a.Obs.Slo.threshold b.Obs.Slo.threshold = 0
            then
              add
                (Diagnostic.v ~code:"V204" ~severity:Diagnostic.Warning ~file
                   ~line:n_b
                   (Printf.sprintf "duplicate of line %d: %S" n_a
                      a.Obs.Slo.source))
            else if not (compatible a b) then
              add
                (Diagnostic.v ~code:"V203" ~severity:Diagnostic.Error ~file
                   ~line:n_b
                   (Printf.sprintf
                      "contradicts line %d: no value satisfies both %S and %S"
                      n_a a.Obs.Slo.source b.Obs.Slo.source)))
        rest;
      pairs rest
  in
  pairs rules;
  List.sort Diagnostic.compare !diags

(* --- fault profiles ---------------------------------------------------- *)

let injects_nothing (t : Streaming.Fault.t) =
  t.Streaming.Fault.loss = Streaming.Fault.No_loss
  && t.Streaming.Fault.corrupt_rate <= 0.
  && t.Streaming.Fault.reorder_rate <= 0.
  && t.Streaming.Fault.jitter_s <= 0.
  && t.Streaming.Fault.collapse = None

let check_fault ~file text =
  match Streaming.Fault.parse text with
  | Error msg -> [ err ~file "V301" msg ]
  | Ok t ->
    if injects_nothing t then
      [ warn ~file "V302" "profile injects no fault at all; did you mean model = none?" ]
    else []

(* --- resilience profiles ------------------------------------------------ *)

(* The runtime deliberately clamps bad values (a profile must never
   wedge a session); the verifier is where out-of-range values become
   findings. Shape errors (unknown keys, bad numbers, unknown rungs)
   surface as the parser's own message. *)
let check_resilience ~file text =
  match Resilience.Profile.parse text with
  | Error msg -> [ err ~file "V501" msg ]
  | Ok p ->
    let diags = ref [] in
    let add d = diags := d :: !diags in
    let positive code what v =
      if v <= 0. then
        add (err ~file code (Printf.sprintf "%s must be positive, got %g" what v))
    in
    let positive_i code what v =
      if v <= 0 then
        add (err ~file code (Printf.sprintf "%s must be positive, got %d" what v))
    in
    (match p.Resilience.Profile.retry with
    | None -> ()
    | Some r ->
      positive "V502" "retry_budget_s" r.Resilience.Retry.budget_s;
      positive_i "V502" "retry_max_rounds" r.Resilience.Retry.max_attempts;
      if r.Resilience.Retry.base_backoff_s < 0. then
        add
          (err ~file "V502"
             (Printf.sprintf "retry_base_s must not be negative, got %g"
                r.Resilience.Retry.base_backoff_s));
      if r.Resilience.Retry.jitter < 0. then
        add
          (err ~file "V502"
             (Printf.sprintf "retry_jitter must not be negative, got %g"
                r.Resilience.Retry.jitter));
      positive "V502" "retry_multiplier" r.Resilience.Retry.multiplier);
    (match p.Resilience.Profile.breaker with
    | None -> ()
    | Some b ->
      if
        b.Resilience.Breaker.failure_threshold < 0.
        || b.Resilience.Breaker.failure_threshold > 1.
      then
        add
          (err ~file "V504"
             (Printf.sprintf "breaker_threshold %g outside [0, 1]"
                b.Resilience.Breaker.failure_threshold));
      positive_i "V502" "breaker_window" b.Resilience.Breaker.window;
      positive_i "V502" "breaker_min_samples" b.Resilience.Breaker.min_samples;
      positive_i "V502" "breaker_probes" b.Resilience.Breaker.probe_quota;
      if b.Resilience.Breaker.cooldown_s < 0. then
        add
          (err ~file "V502"
             (Printf.sprintf "breaker_cooldown_ms must not be negative, got %g"
                (1000. *. b.Resilience.Breaker.cooldown_s))));
    (match p.Resilience.Profile.bulkhead with
    | None -> ()
    | Some b ->
      positive_i "V502" "bulkhead_capacity" b.Resilience.Bulkhead.capacity;
      if b.Resilience.Bulkhead.queue_limit < 0 then
        add
          (err ~file "V502"
             (Printf.sprintf "bulkhead_queue must not be negative, got %d"
                b.Resilience.Bulkhead.queue_limit)));
    (match p.Resilience.Profile.stage_deadline_s with
    | Some d -> positive "V502" "stage_deadline_ms" (d *. 1000.)
    | None -> ());
    (* The ladder must be written shallowest-first with no duplicate
       rungs: the runtime sorts it anyway, so a mis-ordered file means
       the author's mental model and the walk disagree. *)
    let rec check_order = function
      | a :: (b :: _ as rest) ->
        let ra = Resilience.Degrade.rank a and rb = Resilience.Degrade.rank b in
        if ra >= rb then
          add
            (err ~file "V503"
               (Printf.sprintf
                  "ladder steps out of order: %S before %S (write shallowest \
                   first: fresh, stale, clamp, full)"
                  (Resilience.Degrade.label a)
                  (Resilience.Degrade.label b)));
        check_order rest
      | _ -> ()
    in
    check_order p.Resilience.Profile.ladder;
    if Resilience.Profile.is_noop p then
      add
        (warn ~file "V505"
           "profile configures nothing; sessions behave exactly as without \
            --resilience");
    List.sort Diagnostic.compare !diags

(* --- decision journals -------------------------------------------------- *)

(* A fold over [Obs.Journal.walk], the walk both journal decoders use:
   it maps each frame status, the strict decoder's clock rule
   ([Obs.Journal.tick], V406) and the walk's end to a V4xx code. *)

let journal_header_finding ~file = function
  | Obs.Journal.Bad_magic -> err ~file "V401" "bad magic: not a decision journal"
  | Missing_version -> err ~file "V403" "truncated header: missing version byte"
  | Bad_version v ->
    err ~file "V402"
      (Printf.sprintf "unsupported journal version %d (know %d)" v
         Obs.Journal.version)
  | Missing_header_crc -> err ~file "V403" "truncated header: missing header CRC"
  | Bad_header_crc ->
    err ~file "V404" "header CRC mismatch: header cannot be trusted"

let broken_frame_finding ~file data { Obs.Journal.index; offset; error = e } =
  match e.Wire.Binary.failure with
  | Wire.Binary.Truncated needed when e.what = "frame" ->
    err ~file "V403"
      (Printf.sprintf
         "truncated journal: frame %d (byte %d) needs %d byte(s), %d left" index
         offset needed
         (String.length data - e.at))
  | Truncated _ ->
    err ~file "V403"
      (Printf.sprintf "truncated journal: frame %d length cut off at byte %d"
         index e.at)
  | Varint_too_long ->
    err ~file "V408"
      (Printf.sprintf "frame %d length: varint longer than 8 bytes at byte %d"
         index e.at)
  | Varint_overflow ->
    err ~file "V408"
      (Printf.sprintf "frame %d length: varint overflows at byte %d" index e.at)
  | Too_long { len; cap } ->
    err ~file "V408"
      (Printf.sprintf
         "frame %d (byte %d): implausible frame length %d (cap %d); refusing \
          to walk further"
         index offset len cap)

let check_journal ~file data =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let frame clock ~index ~offset = function
    | Obs.Journal.Bad_crc ->
      add
        (err ~file "V405"
           (Printf.sprintf "frame %d (byte %d): frame CRC mismatch" index offset));
      clock
    | Bad_payload msg ->
      add (err ~file "V407" (Printf.sprintf "frame %d (byte %d): %s" index offset msg));
      clock
    | Event e ->
      let clock, backwards = Obs.Journal.tick clock e in
      Option.iter
        (fun msg ->
          add
            (err ~file "V406" (Printf.sprintf "frame %d (byte %d): %s" index offset msg)))
        backwards;
      clock
  in
  (match Obs.Journal.walk data ~init:Obs.Journal.start_clock frame with
  | Error e -> add (journal_header_finding ~file e)
  | Ok (_, None) -> ()
  | Ok (_, Some b) -> add (broken_frame_finding ~file data b));
  List.sort Diagnostic.compare !diags

(* --- dispatch ---------------------------------------------------------- *)

let check_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> [ err ~file:path "V001" msg ]
  | contents ->
    if Filename.check_suffix path ".slo" then check_slo ~file:path contents
    else if Filename.check_suffix path ".fault" then
      check_fault ~file:path contents
    else if Filename.check_suffix path ".resilience" then
      check_resilience ~file:path contents
    else if Filename.check_suffix path ".journal" then
      check_journal ~file:path contents
    else check_annotation ~file:path contents

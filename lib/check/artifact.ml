(* Offline verification of annotation streams, decision journals, SLO
   files and fault and resilience profiles. The binary formats are read
   through their decoders' walks; nothing here runs a session, and every
   finding is a Diagnostic rather than an exception. *)

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

(* The verifier reads the stream through the decoder's own walk
   ([Annotation.Encoding.read_header]/[read_record]), so the two cannot
   disagree about the layout. Where the decoder stops at the first
   problem, the verifier reports all of them, each with its offset, and
   adds the checks no CRC can make: field ranges, scene-index
   monotonicity and coverage, and the panel's backlight range. *)

let canonical_permille = [ 0; 50; 100; 150; 200 ]
let max_name_len = 4096
let max_frames = 0xffffff (* u24 record spans cannot address more *)
let max_fps_milli = 1_000_000

let malformed ~file data (e : Wire.Binary.error) =
  match e.failure with
  | Wire.Binary.Truncated n ->
    err ~file "V103"
      (Printf.sprintf "truncated stream: %s at byte %d needs %d byte(s), %d left"
         e.what e.at n
         (String.length data - e.at))
  | Varint_too_long ->
    err ~file "V105"
      (Printf.sprintf "%s: varint longer than 8 bytes at byte %d" e.what e.at)
  | Varint_overflow ->
    err ~file "V105" (Printf.sprintf "%s: varint overflows at byte %d" e.what e.at)
  | Too_long { len; cap } ->
    err ~file "V105"
      (Printf.sprintf "%s: implausible length %d (cap %d)" e.what len cap)

(* Range checks on the header's numeric fields, made as each is read:
   a stream cut later in the header still gets these findings. *)
let check_field ~file ~add field v =
  match (field : Annotation.Encoding.field) with
  | Quality_permille ->
    if v > 1000 then
      add (err ~file "V105" (Printf.sprintf "quality %d permille exceeds 1000" v))
    else if not (List.mem v canonical_permille) then
      add
        (warn ~file "V106"
           (Printf.sprintf
              "quality %d permille is off the paper's {0,5,10,15,20}%% grid" v))
  | Fps_milli ->
    if v = 0 then add (err ~file "V105" "fps is zero")
    else if v > max_fps_milli then
      add
        (err ~file "V105"
           (Printf.sprintf "fps %.3f is implausible" (float_of_int v /. 1000.)))
  | Total_frames ->
    if v > max_frames then
      add
        (err ~file "V105"
           (Printf.sprintf "total_frames %d exceeds the u24 span limit %d" v
              max_frames))

(* Per-record semantic checks. [expected] is
   the frame the record must start at, [None] once an earlier corrupt
   record made the running position unknowable. *)
let check_entry ~file ~add ~levels ~total_frames ~index ~offset ~expected
    (e : Annotation.Track.entry) =
  let where = Printf.sprintf "record %d (byte %d)" index offset in
  if e.frame_count = 0 then
    add (err ~file "V110" (Printf.sprintf "%s: zero frame_count" where));
  (match expected with
  | Some x when e.first_frame <> x ->
    add
      (err ~file "V109"
         (Printf.sprintf
            "%s: first_frame %d breaks scene-index monotonicity (expected %d)"
            where e.first_frame x))
  | _ -> ());
  if e.first_frame + e.frame_count > total_frames then
    add
      (err ~file "V110"
         (Printf.sprintf "%s: span %d+%d exceeds total_frames %d" where
            e.first_frame e.frame_count total_frames));
  if e.compensation < 1. then
    add
      (err ~file "V111"
         (Printf.sprintf "%s: compensation %.4f below 1.0" where e.compensation));
  match levels with
  | Some levels when e.register >= levels ->
    add
      (err ~file "V112"
         (Printf.sprintf "%s: backlight register %d outside panel range 0..%d"
            where e.register (levels - 1)))
  | _ -> ()

let check_annotation ?(find_device = Display.Device.find) ~file data =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let c = Wire.Binary.cursor data in
  (match
     Annotation.Encoding.read_header ~on_field:(check_field ~file ~add)
       ~max_name:max_name_len c
   with
  | Error Bad_magic -> add (err ~file "V101" "bad magic: not an annotation stream")
  | Error (Bad_version v) ->
    add
      (err ~file "V102"
         (Printf.sprintf "unsupported version %d (know %d)" v
            Annotation.Encoding.version))
  | Error (Malformed e) -> add (malformed ~file data e)
  | Ok h when not h.crc_ok ->
    add
      (err ~file "V104" "header CRC mismatch: header fields cannot be trusted")
  | Ok h when not h.fits ->
    add
      (err ~file "V107"
         (Printf.sprintf
            "declared record count %d disagrees with %d payload byte(s) (%d \
             byte records); refusing to walk records"
            h.count (c.limit - c.pos) Annotation.Encoding.record_size))
  | Ok h -> (
    let levels =
      Option.map
        (fun d -> d.Display.Device.backlight_levels)
        (find_device h.device_name)
    in
    (* The frame the next record must start at; [None] after a record
       that failed its CRC. *)
    let expected = ref (Some 0) in
    for i = 0 to h.count - 1 do
      let offset = c.pos in
      match Annotation.Encoding.read_record c with
      | None ->
        add
          (err ~file "V108"
             (Printf.sprintf "record %d (byte %d): record CRC mismatch" i offset));
        expected := None
      | Some e ->
        check_entry ~file ~add ~levels ~total_frames:h.total_frames ~index:i
          ~offset ~expected:!expected e;
        expected := Some (e.first_frame + e.frame_count)
    done;
    (* Coverage is judged only on an otherwise clean stream: any error,
       a V108 among them, already makes the running position moot. *)
    match !expected with
    | Some covered
      when covered <> h.total_frames
           && List.for_all
                (fun (d : Diagnostic.t) -> not (Diagnostic.is_error d))
                !diags ->
      add
        (err ~file "V114"
           (Printf.sprintf "records cover %d of %d frames" covered
              h.total_frames))
    | _ -> ()));
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
   it maps each frame status and the walk's end to a V4xx code, and adds
   the per-phase clock check (V406) that no CRC can make. *)

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
  (* Three simulated clocks (annotate, transmit, playback) plus the
     session markers: each pipeline stage replays its own clock, and
     one process may run a stage several times (a quality sweep
     annotates once per level), so timestamps are required monotone
     within each contiguous run of same-phase events; a phase change
     or a Session_start starts a fresh clock. The fold carries the
     current phase and its latest timestamp. *)
  let frame ((last_phase, last_t) as clock) ~index ~offset = function
    | Obs.Journal.Bad_crc ->
      add
        (err ~file "V405"
           (Printf.sprintf "frame %d (byte %d): frame CRC mismatch" index offset));
      clock
    | Bad_payload msg ->
      add (err ~file "V407" (Printf.sprintf "frame %d (byte %d): %s" index offset msg));
      clock
    | Event { t_us; kind } ->
      let last_phase =
        match kind with
        | Obs.Journal.Session_start _ | Fleet_shard_start _ -> -1
        | _ -> last_phase
      in
      let ph = Obs.Journal.phase kind in
      let last_t = if ph <> last_phase then -1 else last_t in
      if t_us < last_t then
        add
          (err ~file "V406"
             (Printf.sprintf
                "frame %d (byte %d): timestamp %dus runs backwards within \
                 phase %d (last %dus)"
                index offset t_us ph last_t));
      (ph, if t_us > last_t then t_us else last_t)
  in
  (match Obs.Journal.walk data ~init:(-1, -1) frame with
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

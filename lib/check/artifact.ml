(* Offline verification of annotation streams, SLO files and fault
   profiles. Pure byte/text walks: nothing here runs a session, and
   every finding is a Diagnostic rather than an exception. *)

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

(* The verifier re-walks the wire bytes itself instead of calling
   [Annotation.Encoding.decode]: the decoder stops at the first problem,
   an auditor wants all of them, each with its offset. The layout
   constants (magic, record size, CRC) come from [Annotation.Encoding] so
   the two can never drift apart silently. *)

type cursor = { data : string; mutable pos : int }

exception Abort of Diagnostic.t

let canonical_permille = [ 0; 50; 100; 150; 200 ]
let max_name_len = 4096
let max_frames = 0xffffff (* u24 record spans cannot address more *)
let max_fps_milli = 1_000_000

let need ~file c n what =
  if c.pos + n > String.length c.data then
    raise
      (Abort
         (err ~file "V103"
            (Printf.sprintf
               "truncated stream: %s at byte %d needs %d byte(s), %d left" what
               c.pos n
               (String.length c.data - c.pos))))

let get_byte ~file c what =
  need ~file c 1 what;
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

let get_varint ~file c what =
  let rec loop shift acc =
    if shift > 56 then
      raise
        (Abort
           (err ~file "V105"
              (Printf.sprintf "%s: varint longer than 8 bytes at byte %d" what
                 c.pos)));
    let b = get_byte ~file c what in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if acc < 0 then
      raise
        (Abort
           (err ~file "V105"
              (Printf.sprintf "%s: varint overflows at byte %d" what c.pos)));
    if b land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

let get_u24 ~file c what =
  need ~file c 3 what;
  let b i = Char.code c.data.[c.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) in
  c.pos <- c.pos + 3;
  v

let get_u32 ~file c what =
  need ~file c 4 what;
  let b i = Char.code c.data.[c.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  c.pos <- c.pos + 4;
  v

let get_string ~file c what =
  let n = get_varint ~file c what in
  if n > max_name_len then
    raise
      (Abort
         (err ~file "V105"
            (Printf.sprintf "%s: implausible length %d (cap %d)" what n
               max_name_len)));
  need ~file c n what;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

(* Per-record semantic checks. [expected] is
   the frame the record must start at, [None] once an earlier corrupt
   record made the running position unknowable. *)
let check_entry ~file ~add ~levels ~total_frames ~index ~offset ~expected
    ~first_frame ~frame_count ~register ~comp_fixed =
  let where = Printf.sprintf "record %d (byte %d)" index offset in
  if frame_count = 0 then
    add (err ~file "V110" (Printf.sprintf "%s: zero frame_count" where));
  (match expected with
  | Some e when first_frame <> e ->
    add
      (err ~file "V109"
         (Printf.sprintf
            "%s: first_frame %d breaks scene-index monotonicity (expected %d)"
            where first_frame e))
  | _ -> ());
  if first_frame + frame_count > total_frames then
    add
      (err ~file "V110"
         (Printf.sprintf "%s: span %d+%d exceeds total_frames %d" where
            first_frame frame_count total_frames));
  if comp_fixed < 4096 then
    add
      (err ~file "V111"
         (Printf.sprintf "%s: compensation %.4f below 1.0" where
            (float_of_int comp_fixed /. 4096.)));
  match levels with
  | Some levels when register >= levels ->
    add
      (err ~file "V112"
         (Printf.sprintf "%s: backlight register %d outside panel range 0..%d"
            where register (levels - 1)))
  | _ -> ()

let check_annotation ?(find_device = Display.Device.find) ~file data =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let c = { data; pos = 0 } in
  (try
     if String.length data < 4 || String.sub data 0 4 <> "ANPW" then
       raise
         (Abort (err ~file "V101" "bad magic: not an annotation stream"));
     c.pos <- 4;
     let version = get_byte ~file c "version" in
     if version <> Annotation.Encoding.version then
       raise
         (Abort
            (err ~file "V102"
               (Printf.sprintf "unsupported version %d (know %d)" version
                  Annotation.Encoding.version)));
     let permille = get_varint ~file c "quality" in
     if permille > 1000 then
       add
         (err ~file "V105"
            (Printf.sprintf "quality %d permille exceeds 1000" permille))
     else if not (List.mem permille canonical_permille) then
       add
         (warn ~file "V106"
            (Printf.sprintf
               "quality %d permille is off the paper's {0,5,10,15,20}%% grid"
               permille));
     let fps_milli = get_varint ~file c "fps" in
     if fps_milli = 0 then add (err ~file "V105" "fps is zero")
     else if fps_milli > max_fps_milli then
       add
         (err ~file "V105"
            (Printf.sprintf "fps %.3f is implausible"
               (float_of_int fps_milli /. 1000.)));
     let total_frames = get_varint ~file c "total_frames" in
     if total_frames > max_frames then
       add
         (err ~file "V105"
            (Printf.sprintf "total_frames %d exceeds the u24 span limit %d"
               total_frames max_frames));
     let _clip = get_string ~file c "clip name" in
     let device_name = get_string ~file c "device name" in
     let count = get_varint ~file c "record count" in
     let covered = c.pos in
     let stored = get_u32 ~file c "header CRC" in
     if stored <> Annotation.Encoding.crc32_sub data ~pos:0 ~len:covered then begin
       add
         (err ~file "V104" "header CRC mismatch: header fields cannot be trusted");
       raise Exit
     end;
     let levels =
       Option.map
         (fun d -> d.Display.Device.backlight_levels)
         (find_device device_name)
     in
     let remaining = String.length data - c.pos in
     let rsize = Annotation.Encoding.record_size in
     if remaining mod rsize <> 0 || count <> remaining / rsize then begin
       add
         (err ~file "V107"
            (Printf.sprintf
               "declared record count %d disagrees with %d payload byte(s) \
                (%d byte records); refusing to walk records"
               count remaining rsize));
       raise Exit
     end;
     let expected = ref (Some 0) in
     let unreliable = ref false in
     for i = 0 to count - 1 do
       let offset = c.pos in
       let stored_crc =
         let b k = Char.code data.[offset + rsize - 4 + k] in
         b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
       in
       if stored_crc <> Annotation.Encoding.crc32_sub data ~pos:offset ~len:(rsize - 4)
       then begin
         add
           (err ~file "V108"
              (Printf.sprintf "record %d (byte %d): record CRC mismatch" i
                 offset));
         unreliable := true;
         expected := None;
         c.pos <- offset + rsize
       end
       else begin
         let first_frame = get_u24 ~file c "first_frame" in
         let frame_count = get_u24 ~file c "frame_count" in
         let register = get_byte ~file c "register" in
         let comp_fixed = get_u24 ~file c "compensation" in
         let _effective = get_byte ~file c "effective max" in
         c.pos <- c.pos + 4 (* the CRC, already verified *);
         check_entry ~file ~add ~levels ~total_frames ~index:i ~offset
           ~expected:!expected ~first_frame ~frame_count ~register
           ~comp_fixed;
         expected := Some (first_frame + frame_count)
       end
     done;
     match !expected with
     | Some covered
       when (not !unreliable)
            && covered <> total_frames
            && List.for_all
                 (fun (d : Diagnostic.t) -> not (Diagnostic.is_error d))
                 !diags ->
       add
         (err ~file "V114"
            (Printf.sprintf "records cover %d of %d frames" covered
               total_frames))
     | _ -> ()
   with
  | Abort d -> add d
  | Exit -> ());
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

(* Mirrors [Obs.Journal.decode_partial]'s walk, but reports every
   problem it can localise instead of silently skipping: the framing
   constants and the payload parser come from [Obs.Journal] so the
   verifier and the decoder cannot drift apart. *)

let max_journal_frame = 65536

let check_journal ~file data =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (try
     if String.length data < 4 || String.sub data 0 4 <> Obs.Journal.magic
     then begin
       add (err ~file "V401" "bad magic: not a decision journal");
       raise Exit
     end;
     if String.length data < 5 then begin
       add (err ~file "V403" "truncated header: missing version byte");
       raise Exit
     end;
     let version = Char.code data.[4] in
     if version <> Obs.Journal.version then begin
       add
         (err ~file "V402"
            (Printf.sprintf "unsupported journal version %d (know %d)" version
               Obs.Journal.version));
       raise Exit
     end;
     if String.length data < 9 then begin
       add (err ~file "V403" "truncated header: missing header CRC");
       raise Exit
     end;
     let stored_header =
       let b i = Char.code data.[5 + i] in
       b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
     in
     if stored_header <> Obs.Journal.crc32 (String.sub data 0 5) then begin
       add (err ~file "V404" "header CRC mismatch: header cannot be trusted");
       raise Exit
     end;
     let len_data = String.length data in
     let pos = ref 9 in
     let frame = ref 0 in
     let read_varint what =
       let rec loop shift acc =
         if !pos >= len_data then begin
           add
             (err ~file "V403"
                (Printf.sprintf "truncated journal: %s cut off at byte %d" what
                   !pos));
           raise Exit
         end;
         if shift > 56 then begin
           add
             (err ~file "V408"
                (Printf.sprintf "%s: varint longer than 8 bytes at byte %d"
                   what !pos));
           raise Exit
         end;
         let b = Char.code data.[!pos] in
         incr pos;
         let acc = acc lor ((b land 0x7f) lsl shift) in
         if acc < 0 then begin
           add
             (err ~file "V408"
                (Printf.sprintf "%s: varint overflows at byte %d" what !pos));
           raise Exit
         end;
         if b land 0x80 = 0 then acc else loop (shift + 7) acc
       in
       loop 0 0
     in
     (* Three simulated clocks (annotate, transmit, playback) plus the
        session markers: each pipeline stage replays its own clock, and
        one process may run a stage several times (a quality sweep
        annotates once per level), so timestamps are required monotone
        within each contiguous run of same-phase events; a phase change
        or a Session_start starts a fresh clock. *)
     let last_phase = ref (-1) in
     let last_t = ref (-1) in
     while !pos < len_data do
       let offset = !pos in
       let len = read_varint (Printf.sprintf "frame %d length" !frame) in
       if len > max_journal_frame then begin
         add
           (err ~file "V408"
              (Printf.sprintf
                 "frame %d (byte %d): implausible frame length %d (cap %d); \
                  refusing to walk further"
                 !frame offset len max_journal_frame));
         raise Exit
       end;
       if !pos + len + 4 > len_data then begin
         add
           (err ~file "V403"
              (Printf.sprintf
                 "truncated journal: frame %d (byte %d) needs %d byte(s), %d \
                  left"
                 !frame offset (len + 4) (len_data - !pos)));
         raise Exit
       end;
       let payload = String.sub data !pos len in
       pos := !pos + len;
       let stored =
         let b i = Char.code data.[!pos + i] in
         b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
       in
       pos := !pos + 4;
       if stored <> Obs.Journal.crc32 payload then
         add
           (err ~file "V405"
              (Printf.sprintf "frame %d (byte %d): frame CRC mismatch" !frame
                 offset))
       else begin
         match Obs.Journal.parse_payload payload with
         | Error msg ->
           add
             (err ~file "V407"
                (Printf.sprintf "frame %d (byte %d): %s" !frame offset msg))
         | Ok event ->
           (match event.Obs.Journal.kind with
           | Obs.Journal.Session_start _ | Obs.Journal.Fleet_shard_start _ ->
             last_phase := -1
           | _ -> ());
           let ph = Obs.Journal.phase event.Obs.Journal.kind in
           let t_us = event.Obs.Journal.t_us in
           if ph <> !last_phase then begin
             last_phase := ph;
             last_t := -1
           end;
           if t_us < !last_t then
             add
               (err ~file "V406"
                  (Printf.sprintf
                     "frame %d (byte %d): timestamp %dus runs backwards \
                      within phase %d (last %dus)"
                     !frame offset t_us ph !last_t));
           if t_us > !last_t then last_t := t_us
       end;
       incr frame
     done
   with Exit -> ());
  List.sort Diagnostic.compare !diags

(* --- dispatch ---------------------------------------------------------- *)

let check_file ?find_device ?known path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> [ err ~file:path "V001" msg ]
  | contents ->
    if Filename.check_suffix path ".slo" then
      check_slo ?known ~file:path contents
    else if Filename.check_suffix path ".fault" then
      check_fault ~file:path contents
    else if Filename.check_suffix path ".resilience" then
      check_resilience ~file:path contents
    else if Filename.check_suffix path ".journal" then
      check_journal ~file:path contents
    else check_annotation ?find_device ~file:path contents

(* Text resilience profiles: the --resilience counterpart of the fault
   profile format. Same grammar ([key = value], # comments); the parse
   is deliberately lenient about *values* — a non-positive budget or a
   threshold outside [0,1] parses fine and is the offline verifier's
   business (V502/V504), while the runtime clamps before use — but
   strict about *shape*: unknown keys, bad numbers and unknown ladder
   rungs are errors (V501). *)

type t = {
  retry : Retry.policy option;
  breaker : Breaker.config option;
  bulkhead : Bulkhead.config option;
  ladder : Degrade.step list;  (* file order preserved for the verifier *)
  stage_deadline_s : float option;
}

let empty =
  {
    retry = None;
    breaker = None;
    bulkhead = None;
    ladder = [];
    stage_deadline_s = None;
  }

let is_noop t =
  t.retry = None && t.breaker = None && t.bulkhead = None && t.ladder = []
  && t.stage_deadline_s = None

let parse text =
  let module K = Wire.Keyvalue in
  let budget_s = ref None and base_s = ref None in
  let multiplier = ref None and jitter = ref None and max_rounds = ref None in
  let threshold = ref None and window = ref None and min_samples = ref None in
  let cooldown_ms = ref None and probes = ref None in
  let capacity = ref None and queue = ref None in
  let ladder = ref None in
  let stage_deadline_ms = ref None in
  let ladder_of line v =
    List.map
      (fun s ->
        let s = String.trim s in
        match Degrade.of_label s with
        | Some step -> step
        | None ->
          K.fail "line %d: unknown ladder step %S (fresh, stale, clamp, full)"
            line s)
      (String.split_on_char ',' v)
  in
  let handle_line ~line key value =
    match key with
    | "retry_budget_s" -> budget_s := Some (K.float key value)
    | "retry_base_s" -> base_s := Some (K.float key value)
    | "retry_multiplier" -> multiplier := Some (K.float key value)
    | "retry_jitter" -> jitter := Some (K.float key value)
    | "retry_max_rounds" -> max_rounds := Some (K.int key value)
    | "breaker_threshold" -> threshold := Some (K.float key value)
    | "breaker_window" -> window := Some (K.int key value)
    | "breaker_min_samples" -> min_samples := Some (K.int key value)
    | "breaker_cooldown_ms" -> cooldown_ms := Some (K.float key value)
    | "breaker_probes" -> probes := Some (K.int key value)
    | "bulkhead_capacity" -> capacity := Some (K.int key value)
    | "bulkhead_queue" -> queue := Some (K.int key value)
    | "ladder" -> ladder := Some (ladder_of line value)
    | "stage_deadline_ms" -> stage_deadline_ms := Some (K.float key value)
    | other -> K.unknown_key ~line other
  in
  try
    K.iter text handle_line;
    let retry =
      if
        !budget_s = None && !base_s = None && !multiplier = None
        && !jitter = None && !max_rounds = None
      then None
      else
        Some
          {
            Retry.max_attempts =
              Option.value ~default:Retry.default.Retry.max_attempts !max_rounds;
            base_backoff_s =
              Option.value ~default:Retry.default.Retry.base_backoff_s !base_s;
            multiplier =
              Option.value ~default:Retry.default.Retry.multiplier !multiplier;
            jitter = Option.value ~default:Retry.default.Retry.jitter !jitter;
            budget_s =
              Option.value ~default:Retry.default.Retry.budget_s !budget_s;
          }
    in
    let breaker =
      if
        !threshold = None && !window = None && !min_samples = None
        && !cooldown_ms = None && !probes = None
      then None
      else
        Some
          {
            Breaker.failure_threshold =
              Option.value
                ~default:Breaker.default_config.Breaker.failure_threshold
                !threshold;
            window =
              Option.value ~default:Breaker.default_config.Breaker.window
                !window;
            min_samples =
              Option.value ~default:Breaker.default_config.Breaker.min_samples
                !min_samples;
            cooldown_s =
              (match !cooldown_ms with
              | Some ms -> ms /. 1000.
              | None -> Breaker.default_config.Breaker.cooldown_s);
            probe_quota =
              Option.value ~default:Breaker.default_config.Breaker.probe_quota
                !probes;
          }
    in
    let bulkhead =
      if !capacity = None && !queue = None then None
      else
        Some
          {
            Bulkhead.capacity =
              Option.value ~default:Bulkhead.default_config.Bulkhead.capacity
                !capacity;
            queue_limit =
              Option.value ~default:Bulkhead.default_config.Bulkhead.queue_limit
                !queue;
          }
    in
    Ok
      {
        retry;
        breaker;
        bulkhead;
        ladder = Option.value ~default:[] !ladder;
        stage_deadline_s =
          Option.map (fun ms -> ms /. 1000.) !stage_deadline_ms;
      }
  with K.Invalid msg -> Error msg

let load ~path = Wire.Keyvalue.load parse ~path

let pp ppf t =
  let open Format in
  if is_noop t then pp_print_string ppf "no-op"
  else begin
    let first = ref true in
    let sep () =
      if !first then first := false else pp_print_string ppf ", "
    in
    (match t.retry with
    | Some r ->
      sep ();
      fprintf ppf "retry(budget %.0f ms, base %.1f ms x%g, %d rounds%s)"
        (1000. *. r.Retry.budget_s)
        (1000. *. r.Retry.base_backoff_s)
        r.Retry.multiplier r.Retry.max_attempts
        (if r.Retry.jitter > 0. then
           Printf.sprintf ", jitter %g" r.Retry.jitter
         else "")
    | None -> ());
    (match t.breaker with
    | Some b ->
      sep ();
      fprintf ppf "breaker(%.0f%% over %d, cooldown %.0f ms, %d probes)"
        (100. *. b.Breaker.failure_threshold)
        b.Breaker.window
        (1000. *. b.Breaker.cooldown_s)
        b.Breaker.probe_quota
    | None -> ());
    (match t.bulkhead with
    | Some b ->
      sep ();
      fprintf ppf "bulkhead(%d + queue %d)" b.Bulkhead.capacity
        b.Bulkhead.queue_limit
    | None -> ());
    (match t.ladder with
    | [] -> ()
    | steps ->
      sep ();
      fprintf ppf "ladder(%s)"
        (String.concat " -> " (List.map Degrade.label steps)));
    match t.stage_deadline_s with
    | Some d ->
      sep ();
      fprintf ppf "stage deadline %.0f ms" (1000. *. d)
    | None -> ()
  end

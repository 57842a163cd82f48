type arrival = Open_loop | Closed_loop

type t = {
  arrival : arrival;
  sessions : int;
  rate_per_s : float;
  concurrency : int;
  zipf_s : float;
  diurnal_amplitude : float;
  diurnal_period_s : float;
  spike_at_s : float option;
  spike_factor : float;
  spike_width_s : float;
  seed : int;
}

let default =
  {
    arrival = Open_loop;
    sessions = 1000;
    rate_per_s = 100.;
    concurrency = 32;
    zipf_s = 1.1;
    diurnal_amplitude = 0.;
    diurnal_period_s = 86400.;
    spike_at_s = None;
    spike_factor = 1.;
    spike_width_s = 0.;
    seed = 7;
  }

let validate t =
  let fail = Wire.Keyvalue.fail in
  if t.sessions < 1 then fail "sessions must be >= 1";
  if not (t.rate_per_s > 0.) then fail "rate_per_s must be > 0";
  if t.concurrency < 1 then fail "concurrency must be >= 1";
  if not (t.zipf_s >= 0.) then fail "zipf_s must be >= 0";
  if not (t.diurnal_amplitude >= 0. && t.diurnal_amplitude < 1.) then
    fail "diurnal_amplitude must be in [0, 1)";
  if not (t.diurnal_period_s > 0.) then fail "diurnal_period_s must be > 0";
  if not (t.spike_factor > 0.) then fail "spike_factor must be > 0";
  if not (t.spike_width_s >= 0.) then fail "spike_width_s must be >= 0";
  (match t.spike_at_s with
  | Some at when not (at >= 0.) -> fail "spike_at_s must be >= 0"
  | _ -> ());
  t

let parse text =
  let module K = Wire.Keyvalue in
  let p = ref default in
  let handle_line ~line key value =
    match key with
    | "arrival" -> (
      match String.lowercase_ascii value with
      | "open" -> p := { !p with arrival = Open_loop }
      | "closed" -> p := { !p with arrival = Closed_loop }
      | other -> K.fail "line %d: unknown arrival %S (open, closed)" line other)
    | "sessions" -> p := { !p with sessions = K.int key value }
    | "rate_per_s" -> p := { !p with rate_per_s = K.float key value }
    | "concurrency" -> p := { !p with concurrency = K.int key value }
    | "zipf_s" -> p := { !p with zipf_s = K.float key value }
    | "diurnal_amplitude" ->
      p := { !p with diurnal_amplitude = K.float key value }
    | "diurnal_period_s" -> p := { !p with diurnal_period_s = K.float key value }
    | "spike_at_s" -> p := { !p with spike_at_s = Some (K.float key value) }
    | "spike_factor" -> p := { !p with spike_factor = K.float key value }
    | "spike_width_s" -> p := { !p with spike_width_s = K.float key value }
    | "seed" -> p := { !p with seed = K.int key value }
    | other -> K.unknown_key ~line other
  in
  try
    K.iter text handle_line;
    Ok (validate !p)
  with K.Invalid msg -> Error msg

let load ~path = Wire.Keyvalue.load parse ~path

(* Instantaneous arrival rate: the configured mean, modulated by the
   diurnal sine and the flash-crowd window. Floored well above zero so
   a deep diurnal trough can only stretch interarrival gaps, never
   stall the generator. *)
let rate_at t now_s =
  let diurnal =
    1.
    +. t.diurnal_amplitude
       *. sin (2. *. Float.pi *. now_s /. t.diurnal_period_s)
  in
  let spike =
    match t.spike_at_s with
    | Some at
      when now_s >= at -. (t.spike_width_s /. 2.)
           && now_s <= at +. (t.spike_width_s /. 2.) ->
      t.spike_factor
    | _ -> 1.
  in
  Float.max 1e-6 (t.rate_per_s *. diurnal *. spike)

type plan = { clip_of : int array; arrival_s : float array }

(* Distinct deterministic streams per concern (same idiom as
   Fault): changing the arrival process never changes which clip a
   session plays, so shard ownership is stable across load shapes. *)
let salt_clip = 0x3c6ef
let salt_arrival = 0x1b873

let plan t ~catalog =
  if catalog < 1 then invalid_arg "Fleet.Load.plan: catalog must be >= 1";
  (* Zipf(s) over catalog ranks by inverse CDF: rank k gets weight
     1 / (k + 1)^s, so rank 0 is the head of the popularity curve. *)
  let cumulative = Array.make catalog 0. in
  let total = ref 0. in
  for k = 0 to catalog - 1 do
    total := !total +. (1. /. Float.pow (float_of_int (k + 1)) t.zipf_s);
    cumulative.(k) <- !total
  done;
  let pick_clip u =
    let target = u *. !total in
    let lo = ref 0 and hi = ref (catalog - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) < target then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let r_clip = Image.Prng.create ~seed:((t.seed * 0x2545f49) lxor salt_clip) in
  let clip_of =
    Array.init t.sessions (fun _ -> pick_clip (Image.Prng.float r_clip 1.))
  in
  let arrival_s =
    match t.arrival with
    | Closed_loop ->
      (* The scheduler starts closed-loop sessions as slots free up;
         there is no exogenous arrival time. *)
      Array.make t.sessions 0.
    | Open_loop ->
      let r =
        Image.Prng.create ~seed:((t.seed * 0x2545f49) lxor salt_arrival)
      in
      let now = ref 0. in
      Array.init t.sessions (fun _ ->
          let u = Float.max (Image.Prng.float r 1.) 1e-12 in
          now := !now +. (-.log u /. rate_at t !now);
          !now)
  in
  { clip_of; arrival_s }

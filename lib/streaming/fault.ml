type loss_model =
  | No_loss
  | Bernoulli of float
  | Gilbert of {
      p_enter_bad : float;
      p_exit_bad : float;
      loss_good : float;
      loss_bad : float;
    }

type collapse = { at_fraction : float; factor : float }

type t = {
  loss : loss_model;
  corrupt_rate : float;
  reorder_rate : float;
  jitter_s : float;
  collapse : collapse option;
}

let none =
  { loss = No_loss; corrupt_rate = 0.; reorder_rate = 0.; jitter_s = 0.; collapse = None }

let check_prob what p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Fault: %s %g out of [0, 1]" what p)

let bernoulli ~rate =
  check_prob "bernoulli rate" rate;
  { none with loss = Bernoulli rate }

let gilbert ?(loss_good = 0.) ?(loss_bad = 1.) ~mean_loss ~burst_length () =
  check_prob "loss_good" loss_good;
  check_prob "loss_bad" loss_bad;
  if burst_length < 1. then
    invalid_arg "Fault.gilbert: burst length must be >= 1 packet";
  if not (mean_loss > loss_good && mean_loss < loss_bad) then
    invalid_arg
      (Printf.sprintf
         "Fault.gilbert: mean loss %g must lie strictly between loss_good %g \
          and loss_bad %g" mean_loss loss_good loss_bad);
  (* Stationary bad-state occupancy pi solves
     mean_loss = pi * loss_bad + (1 - pi) * loss_good; the mean bad
     sojourn is 1 / p_exit_bad packets. *)
  let pi = (mean_loss -. loss_good) /. (loss_bad -. loss_good) in
  let p_exit_bad = 1. /. burst_length in
  let p_enter_bad = p_exit_bad *. pi /. (1. -. pi) in
  if p_enter_bad > 1. then
    invalid_arg "Fault.gilbert: mean loss too high for this burst length";
  { none with loss = Gilbert { p_enter_bad; p_exit_bad; loss_good; loss_bad } }

(* Distinct deterministic streams per concern, so adding corruption to
   a profile never changes which packets the loss model drops. *)
let salt_loss = 0x1f12f
let salt_reorder = 0x9e377
let salt_corrupt = 0x85eb1
let salt_jitter = 0xc2b2a

let rng ~seed ~salt = Image.Prng.create ~seed:((seed * 0x2545f49) lxor salt)

let loss_mask t ~seed ~n =
  if n < 0 then invalid_arg "Fault.loss_mask: negative length";
  match t.loss with
  | No_loss -> Array.make n false
  | Bernoulli rate ->
    let r = rng ~seed ~salt:salt_loss in
    Array.init n (fun _ -> Image.Prng.float r 1. < rate)
  | Gilbert g ->
    let r = rng ~seed ~salt:salt_loss in
    let pi =
      let d = g.p_enter_bad +. g.p_exit_bad in
      if d <= 0. then 0. else g.p_enter_bad /. d
    in
    let bad = ref (Image.Prng.float r 1. < pi) in
    Array.init n (fun _ ->
        let p = if !bad then g.loss_bad else g.loss_good in
        let lost = Image.Prng.float r 1. < p in
        let flip =
          Image.Prng.float r 1. < (if !bad then g.p_exit_bad else g.p_enter_bad)
        in
        if flip then bad := not !bad;
        lost)

let corrupt_packet r rate packet =
  let out = ref None in
  String.iteri
    (fun i c ->
      if Image.Prng.float r 1. < rate then begin
        let bytes =
          match !out with
          | Some b -> b
          | None ->
            let b = Bytes.of_string packet in
            out := Some b;
            b
        in
        (* XOR with a non-zero byte: a "corruption" always changes the
           byte, so the injected rate is the observed flip rate. *)
        Bytes.set bytes i
          (Char.chr (Char.code c lxor (1 + Image.Prng.int r 255)))
      end)
    packet;
  match !out with None -> packet | Some b -> Bytes.to_string b

let apply ?(t_s = 0.) t ~seed packets =
  let n = Array.length packets in
  let lost = loss_mask t ~seed ~n in
  let reorder_rng = rng ~seed ~salt:salt_reorder in
  let corrupt_rng = rng ~seed ~salt:salt_corrupt in
  let out =
    Array.init n (fun i ->
        if lost.(i) then None
        else if
          t.reorder_rate > 0. && Image.Prng.float reorder_rng 1. < t.reorder_rate
        then
          (* Displaced past its decode deadline: gone as far as playback
             is concerned, though a retransmission can still repair it. *)
          None
        else if t.corrupt_rate > 0. then
          Some (corrupt_packet corrupt_rng t.corrupt_rate packets.(i))
        else Some packets.(i))
  in
  if Obs.enabled () && Obs.Journal.installed () then begin
    let delivered =
      Array.fold_left (fun acc p -> if p = None then acc else acc + 1) 0 out
    in
    Obs.Journal.record ~t_s (Obs.Journal.Channel { packets = n; delivered })
  end;
  out

let delay_s t ~seed ~index =
  if t.jitter_s <= 0. then 0.
  else
    let r = rng ~seed:(seed + (index * 0x9e3779b1)) ~salt:salt_jitter in
    Image.Prng.float r t.jitter_s

let bandwidth_factor t ~progress =
  match t.collapse with
  | None -> 1.
  | Some c -> if progress >= c.at_fraction then c.factor else 1.

(* --- profile format ---------------------------------------------------- *)

let parse text =
  let module K = Wire.Keyvalue in
  let model = ref `None in
  let rate = ref None and mean_loss = ref None and burst_length = ref None in
  let loss_good = ref 0. and loss_bad = ref 1. in
  let corrupt = ref 0. and reorder = ref 0. and jitter_ms = ref 0. in
  let collapse_at = ref None and collapse_factor = ref None in
  let handle_line ~line key value =
    match key with
    | "model" -> (
      match String.lowercase_ascii value with
      | "none" -> model := `None
      | "bernoulli" -> model := `Bernoulli
      | "gilbert" -> model := `Gilbert
      | other ->
        K.fail "line %d: unknown model %S (none, bernoulli, gilbert)" line other)
    | "rate" -> rate := Some (K.float key value)
    | "mean_loss" -> mean_loss := Some (K.float key value)
    | "burst_length" | "burst" -> burst_length := Some (K.float key value)
    | "loss_good" -> loss_good := K.float key value
    | "loss_bad" -> loss_bad := K.float key value
    | "corrupt" -> corrupt := K.float key value
    | "reorder" -> reorder := K.float key value
    | "jitter_ms" -> jitter_ms := K.float key value
    | "collapse_at" -> collapse_at := Some (K.float key value)
    | "collapse_factor" -> collapse_factor := Some (K.float key value)
    | other -> K.unknown_key ~line other
  in
  try
    K.iter text handle_line;
    let base =
      match !model with
      | `None ->
        if !rate <> None || !mean_loss <> None then
          K.fail "loss parameters given but model = none (or missing)";
        none
      | `Bernoulli -> (
        match !rate with
        | None -> K.fail "model = bernoulli needs rate"
        | Some r -> bernoulli ~rate:r)
      | `Gilbert -> (
        match (!mean_loss, !burst_length) with
        | Some m, Some b ->
          gilbert ~loss_good:!loss_good ~loss_bad:!loss_bad ~mean_loss:m
            ~burst_length:b ()
        | _ -> K.fail "model = gilbert needs mean_loss and burst_length")
    in
    check_prob "corrupt" !corrupt;
    check_prob "reorder" !reorder;
    if !jitter_ms < 0. then K.fail "jitter_ms must be >= 0";
    let collapse =
      match (!collapse_at, !collapse_factor) with
      | None, None -> None
      | Some at, Some factor ->
        if not (at >= 0. && at <= 1.) then K.fail "collapse_at must be in [0, 1]";
        if not (factor > 0. && factor <= 1.) then
          K.fail "collapse_factor must be in (0, 1]";
        Some { at_fraction = at; factor }
      | _ -> K.fail "collapse_at and collapse_factor go together"
    in
    Ok
      {
        base with
        corrupt_rate = !corrupt;
        reorder_rate = !reorder;
        jitter_s = !jitter_ms /. 1000.;
        collapse;
      }
  with
  | K.Invalid msg -> Error msg
  | Invalid_argument msg -> Error msg

let load ~path = Wire.Keyvalue.load parse ~path

let pp ppf t =
  let open Format in
  (match t.loss with
  | No_loss -> pp_print_string ppf "no loss"
  | Bernoulli r -> fprintf ppf "bernoulli(%.1f%%)" (100. *. r)
  | Gilbert g ->
    let pi =
      let d = g.p_enter_bad +. g.p_exit_bad in
      if d <= 0. then 0. else g.p_enter_bad /. d
    in
    let mean = (pi *. g.loss_bad) +. ((1. -. pi) *. g.loss_good) in
    fprintf ppf "gilbert(mean %.1f%%, burst %.1f)" (100. *. mean) (1. /. g.p_exit_bad));
  if t.corrupt_rate > 0. then fprintf ppf " corrupt %g" t.corrupt_rate;
  if t.reorder_rate > 0. then fprintf ppf " reorder %g" t.reorder_rate;
  if t.jitter_s > 0. then fprintf ppf " jitter %gms" (1000. *. t.jitter_s);
  match t.collapse with
  | None -> ()
  | Some c ->
    fprintf ppf " collapse %.0f%%bw@@%.0f%%" (100. *. c.factor) (100. *. c.at_fraction)

type t = { sample_rate_hz : float }

type reading = {
  duration_s : float;
  samples : int;
  energy_mj : float;
  average_power_mw : float;
  peak_power_mw : float;
  min_power_mw : float;
}

let create ?(sample_rate_hz = 2000.) () =
  if sample_rate_hz <= 0. then invalid_arg "Meter.create: rate must be positive";
  { sample_rate_hz }

let sample_rate_hz m = m.sample_rate_hz

let publish ?component reading =
  if Obs.enabled () then begin
    match component with
    | Some c ->
      (* Feed the health monitor so per-component power-budget rules
         ([power_<component>_mj < X]) can gate on it. The name is
         declared on first use: component names only exist at
         measurement time. *)
      Obs.Monitor.gauge
        (Obs.Monitor.declare_series ("power_" ^ c ^ "_mj"))
        reading.energy_mj;
      (* And the energy profiler: every metered joule is attributed
         under whatever span is open at measurement time. *)
      Obs.Profile.record ~component:c reading.energy_mj
    | None -> ()
  end;
  reading

let measure ?component m ~duration_s power =
  if duration_s <= 0. then invalid_arg "Meter.measure: duration must be positive";
  let dt = 1. /. m.sample_rate_hz in
  let n = max 1 (int_of_float (duration_s /. dt)) in
  let energy = ref 0. and peak = ref neg_infinity and low = ref infinity in
  for i = 0 to n - 1 do
    let p = power (float_of_int i *. dt) in
    energy := !energy +. (p *. dt);
    if p > !peak then peak := p;
    if p < !low then low := p
  done;
  publish ?component
    {
      duration_s;
      samples = n;
      energy_mj = !energy;
      average_power_mw = !energy /. (float_of_int n *. dt);
      peak_power_mw = !peak;
      min_power_mw = !low;
    }

let measure_trace ?component m ~dt_s trace =
  if dt_s <= 0. then invalid_arg "Meter.measure_trace: dt must be positive";
  let frames = Array.length trace in
  if frames = 0 then invalid_arg "Meter.measure_trace: empty trace";
  let duration_s = dt_s *. float_of_int frames in
  let power t =
    let i = int_of_float (t /. dt_s) in
    trace.(min (frames - 1) (max 0 i))
  in
  measure ?component m ~duration_s power

let savings_vs ~baseline r =
  if baseline.energy_mj <= 0. then invalid_arg "Meter.savings_vs: zero baseline";
  (baseline.energy_mj -. r.energy_mj) /. baseline.energy_mj

type level = {
  frequency_mhz : int;
  voltage_v : float;
  busy_power_mw : float;
  idle_power_mw : float;
}

(* PXA255-style operating points. Busy power follows C V^2 f scaled so
   the 400 MHz point matches the 600 mW of the device profiles; idle
   power scales with voltage only (leakage + clock tree). *)
let operating_point ~frequency_mhz ~voltage_v =
  let top_f = 400. and top_v = 1.3 in
  let scale =
    (voltage_v /. top_v) ** 2. *. (float_of_int frequency_mhz /. top_f)
  in
  {
    frequency_mhz;
    voltage_v;
    busy_power_mw = 600. *. scale;
    idle_power_mw = 40. +. (120. *. ((voltage_v /. top_v) ** 2.));
  }

let xscale_levels =
  [
    operating_point ~frequency_mhz:100 ~voltage_v:0.85;
    operating_point ~frequency_mhz:200 ~voltage_v:1.0;
    operating_point ~frequency_mhz:300 ~voltage_v:1.1;
    operating_point ~frequency_mhz:400 ~voltage_v:1.3;
  ]

let full_speed =
  match List.rev xscale_levels with
  | top :: _ -> top
  | [] -> assert false

let cycles_available level ~seconds =
  float_of_int level.frequency_mhz *. 1e6 *. seconds

let lowest_feasible ~cycles ~deadline_s =
  if deadline_s <= 0. then invalid_arg "Dvfs.lowest_feasible: non-positive deadline";
  if cycles < 0. then invalid_arg "Dvfs.lowest_feasible: negative cycles";
  List.find_opt
    (fun level -> cycles_available level ~seconds:deadline_s >= cycles)
    xscale_levels

let busy_seconds level ~cycles = cycles /. (float_of_int level.frequency_mhz *. 1e6)

let frame_energy_mj level ~cycles ~deadline_s =
  let busy = busy_seconds level ~cycles in
  let idle = Float.max 0. (deadline_s -. busy) in
  (level.busy_power_mw *. busy) +. (level.idle_power_mw *. idle)

type breakdown = {
  backlight_mw : float;
  lcd_logic_mw : float;
  cpu_mw : float;
  network_mw : float;
  base_mw : float;
}

let clamp r = if r < 0 then 0 else if r > 255 then 255 else r

let backlight_power_mw (d : Display.Device.t) ~on ~register =
  if not on then 0.
  else
    let r = float_of_int (clamp register) /. 255. in
    d.Display.Device.backlight_power_floor_mw
    +. ((d.Display.Device.backlight_power_full_mw
         -. d.Display.Device.backlight_power_floor_mw)
        *. r)

let component_breakdown (d : Display.Device.t) (s : State.t) =
  {
    backlight_mw =
      backlight_power_mw d ~on:s.State.backlight_on ~register:s.State.backlight_register;
    lcd_logic_mw = d.Display.Device.lcd_logic_power_mw;
    cpu_mw =
      (match s.State.cpu with
      | State.Cpu_busy -> d.Display.Device.cpu_busy_power_mw
      | State.Cpu_idle -> d.Display.Device.cpu_idle_power_mw);
    network_mw =
      (match s.State.network with
      | State.Net_receiving -> d.Display.Device.network_rx_power_mw
      | State.Net_idle -> d.Display.Device.network_idle_power_mw);
    base_mw = d.Display.Device.base_power_mw;
  }

let total_mw b = b.backlight_mw +. b.lcd_logic_mw +. b.cpu_mw +. b.network_mw +. b.base_mw

let device_power_mw d s = total_mw (component_breakdown d s)

let backlight_share d s =
  let b = component_breakdown d s in
  b.backlight_mw /. total_mw b

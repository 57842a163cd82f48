type cpu_state = Cpu_busy | Cpu_idle

type network_state = Net_receiving | Net_idle

type t = {
  backlight_on : bool;
  backlight_register : int;
  cpu : cpu_state;
  network : network_state;
}

let playback_full =
  { backlight_on = true; backlight_register = 255; cpu = Cpu_busy; network = Net_receiving }

let clamp r = if r < 0 then 0 else if r > 255 then 255 else r

let with_backlight register state = { state with backlight_register = clamp register }

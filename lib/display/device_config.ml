let default = Device.ipaq_h5555

let parse_transfer value =
  match String.split_on_char ':' value with
  | [ "led" ] -> Ok Transfer.led_typical
  | [ "ccfl" ] -> Ok Transfer.ccfl_typical
  | [ "linear" ] -> Ok (Transfer.gamma 1.)
  | [ "gamma"; g ] -> (
    match float_of_string_opt g with
    | Some g when g > 0. -> Ok (Transfer.gamma g)
    | Some _ | None -> Error "gamma must be a positive number")
  | _ -> Error "expected led | ccfl | linear | gamma:<g>"

let parse_panel_type = function
  | "reflective" -> Ok Panel.Reflective
  | "transmissive" -> Ok Panel.Transmissive
  | "transflective" -> Ok Panel.Transflective
  | _ -> Error "expected reflective | transmissive | transflective"

let parse_technology = function
  | "led" -> Ok Panel.Led
  | "ccfl" -> Ok Panel.Ccfl
  | _ -> Error "expected led | ccfl"

let parse_screen value =
  match String.split_on_char 'x' value with
  | [ w; h ] -> (
    match (int_of_string_opt w, int_of_string_opt h) with
    | Some w, Some h when w > 0 && h > 0 -> Ok (w, h)
    | _ -> Error "expected <width>x<height> with positive integers")
  | _ -> Error "expected <width>x<height>"

let parse_power value =
  match float_of_string_opt value with
  | Some v when v >= 0. -> Ok v
  | Some _ | None -> Error "expected a non-negative number"

(* Mutable assembly state while folding over lines. *)
type builder = {
  mutable name : string;
  mutable panel_type : Panel.panel_type;
  mutable technology : Panel.backlight_technology;
  mutable transfer : Transfer.t option;  (* None = derive from technology *)
  mutable white_gamma : float;
  mutable screen : int * int;
  mutable backlight_full : float;
  mutable backlight_floor : float;
  mutable lcd : float;
  mutable cpu_busy : float;
  mutable cpu_idle : float;
  mutable net_rx : float;
  mutable net_idle : float;
  mutable base : float;
}

let builder_of_default () =
  {
    name = default.Device.name;
    panel_type = default.Device.panel.Panel.panel_type;
    technology = default.Device.panel.Panel.technology;
    transfer = None;
    white_gamma = default.Device.panel.Panel.white_gamma;
    screen = (default.Device.screen_width, default.Device.screen_height);
    backlight_full = default.Device.backlight_power_full_mw;
    backlight_floor = default.Device.backlight_power_floor_mw;
    lcd = default.Device.lcd_logic_power_mw;
    cpu_busy = default.Device.cpu_busy_power_mw;
    cpu_idle = default.Device.cpu_idle_power_mw;
    net_rx = default.Device.network_rx_power_mw;
    net_idle = default.Device.network_idle_power_mw;
    base = default.Device.base_power_mw;
  }

let apply_key b key value =
  let power setter = Result.map setter (parse_power value) in
  match key with
  | "name" ->
    if value = "" then Error "name must not be empty"
    else begin
      b.name <- value;
      Ok ()
    end
  | "panel" -> Result.map (fun p -> b.panel_type <- p) (parse_panel_type value)
  | "technology" -> Result.map (fun t -> b.technology <- t) (parse_technology value)
  | "transfer" -> Result.map (fun t -> b.transfer <- Some t) (parse_transfer value)
  | "white_gamma" -> (
    match float_of_string_opt value with
    | Some g when g > 0. ->
      b.white_gamma <- g;
      Ok ()
    | Some _ | None -> Error "white_gamma must be positive")
  | "screen" -> Result.map (fun s -> b.screen <- s) (parse_screen value)
  | "backlight_full_mw" -> power (fun v -> b.backlight_full <- v)
  | "backlight_floor_mw" -> power (fun v -> b.backlight_floor <- v)
  | "lcd_mw" -> power (fun v -> b.lcd <- v)
  | "cpu_busy_mw" -> power (fun v -> b.cpu_busy <- v)
  | "cpu_idle_mw" -> power (fun v -> b.cpu_idle <- v)
  | "net_rx_mw" -> power (fun v -> b.net_rx <- v)
  | "net_idle_mw" -> power (fun v -> b.net_idle <- v)
  | "base_mw" -> power (fun v -> b.base <- v)
  | key -> Error (Printf.sprintf "unknown key %S" key)

let of_string text =
  let b = builder_of_default () in
  match
    Wire.Keyvalue.iter text (fun ~line key value ->
        match apply_key b key value with
        | Ok () -> ()
        | Error msg -> Wire.Keyvalue.fail "line %d: %s" line msg)
  with
  | exception Wire.Keyvalue.Invalid msg -> Error msg
  | () ->
    let transfer =
      match b.transfer with
      | Some t -> t
      | None -> (
        match b.technology with
        | Panel.Led -> Transfer.led_typical
        | Panel.Ccfl -> Transfer.ccfl_typical)
    in
    let width, height = b.screen in
    Ok
      {
        Device.name = b.name;
        panel =
          Panel.make ~white_gamma:b.white_gamma ~panel_type:b.panel_type
            ~technology:b.technology transfer;
        screen_width = width;
        screen_height = height;
        backlight_levels = 256;
        backlight_power_full_mw = b.backlight_full;
        backlight_power_floor_mw = b.backlight_floor;
        lcd_logic_power_mw = b.lcd;
        cpu_busy_power_mw = b.cpu_busy;
        cpu_idle_power_mw = b.cpu_idle;
        network_rx_power_mw = b.net_rx;
        network_idle_power_mw = b.net_idle;
        base_power_mw = b.base;
      }

let to_string (d : Device.t) =
  let panel = d.Device.panel in
  let technology_name =
    match panel.Panel.technology with Panel.Led -> "led" | Panel.Ccfl -> "ccfl"
  in
  String.concat "\n"
    [
      Printf.sprintf "name = %s" d.Device.name;
      Printf.sprintf "panel = %s"
        (match panel.Panel.panel_type with
        | Panel.Reflective -> "reflective"
        | Panel.Transmissive -> "transmissive"
        | Panel.Transflective -> "transflective");
      Printf.sprintf "technology = %s" technology_name;
      "# transfer emitted as the technology's named curve";
      Printf.sprintf "transfer = %s" technology_name;
      Printf.sprintf "white_gamma = %g" panel.Panel.white_gamma;
      Printf.sprintf "screen = %dx%d" d.Device.screen_width d.Device.screen_height;
      Printf.sprintf "backlight_full_mw = %g" d.Device.backlight_power_full_mw;
      Printf.sprintf "backlight_floor_mw = %g" d.Device.backlight_power_floor_mw;
      Printf.sprintf "lcd_mw = %g" d.Device.lcd_logic_power_mw;
      Printf.sprintf "cpu_busy_mw = %g" d.Device.cpu_busy_power_mw;
      Printf.sprintf "cpu_idle_mw = %g" d.Device.cpu_idle_power_mw;
      Printf.sprintf "net_rx_mw = %g" d.Device.network_rx_power_mw;
      Printf.sprintf "net_idle_mw = %g" d.Device.network_idle_power_mw;
      Printf.sprintf "base_mw = %g" d.Device.base_power_mw;
      "";
    ]

let load ~path = Wire.Keyvalue.load of_string ~path

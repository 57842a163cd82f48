(* lint: allow L006 umbrella namespace of aliases; contracts live in the member .mlis *)
(* Umbrella module: the public face of the observability layer.

   The layer observes the *simulator* — wall-clock stage timings,
   packet/frame/scene counts, solver behaviour — which is disjoint
   from Power.Meter, which accounts *simulated* energy inside the
   model. Keeping them separate means instrumentation can never leak
   into the physics (see DESIGN.md). *)

module Json = Json
module Clock = Clock
module Metrics = Metrics
module Registry = Registry
module Trace = Trace
module Sketch = Sketch
module Slo = Slo
module Monitor = Monitor
module Openmetrics = Openmetrics
module Profile = Profile
module Journal = Journal
module Explain = Explain

let enable () = Control.set true

let disable () = Control.set false

let enabled () = Control.on ()

(* Monitoring (quantile sketches + windowed SLO evaluation) is a
   second switch on top of [enable]: it only takes effect while
   observability itself is on. *)
let enable_monitoring () = Control.set_monitor true

let disable_monitoring () = Control.set_monitor false

let monitoring () = Control.monitor_on ()

let with_enabled f =
  let was = Control.on () in
  Control.set true;
  Fun.protect ~finally:(fun () -> Control.set was) f

(* Shorthands for the common get-or-create calls, so instrumented
   libraries read [Obs.counter "..." []] instead of the full path. *)
let counter = Registry.counter ?registry:None

let histogram = Registry.histogram ?registry:None

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* The installed profiler's counter track rides along with the spans,
   so one Perfetto load shows time and energy on the same timeline. *)
let write_chrome_trace ~path =
  let counters =
    match Profile.current () with
    | Some p -> Profile.counter_events p
    | None -> []
  in
  write_file ~path (Json.to_string (Trace.to_chrome_json ~counters ()))

let pp_summary ppf () =
  let snap = Registry.snapshot () in
  Format.fprintf ppf "@[<v>--- obs metrics ---@,%a@]" Registry.pp_text snap;
  if Trace.span_count () > 0 then
    Format.fprintf ppf "@[<v>--- obs spans ---@,%a@]" Trace.pp_flame ()

(* Energy-attribution profiler.

   Samples arrive as (component, millijoules) pairs from
   [Power.Meter.publish] and the per-scene attribution hook in the
   streaming session. Each sample is filed under the attribution path
   [open span stack ++ scene? ++ component], so the same joule shows
   up two ways: hierarchically (collapsed-stack flame graph of where
   energy went) and cumulatively (registry gauge + Chrome counter
   track, the time view). Purely observational: nothing in here feeds
   back into control decisions, and with no profiler installed
   [record] is a single option load. *)

type t = {
  mutex : Mutex.t;
  stacks : (string list, float ref) Hashtbl.t;  (* guarded_by: mutex *)
  components : (string, float ref) Hashtbl.t;  (* guarded_by: mutex, cumulative mJ *)
  mutable counters : Trace.counter list;  (* guarded_by: mutex, newest first *)
  mutable samples : int;  (* guarded_by: mutex *)
}

let create () =
  {
    mutex = Mutex.create ();
    stacks = Hashtbl.create 32;
    components = Hashtbl.create 8;
    counters = [];
    samples = 0;
  }

let with_lock p f =
  Mutex.lock p.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.mutex) f

(* --- process-global instance ------------------------------------------- *)

(* Atomic rather than a plain ref: [record] races with
   [install]/[uninstall] when pool domains attribute energy while the
   driver swaps profilers. *)
let instance : t option Atomic.t = Atomic.make None

let install p = Atomic.set instance (Some p)

let uninstall () = Atomic.set instance None

let current () = Atomic.get instance

let installed () = Option.is_some (Atomic.get instance)

(* --- recording ---------------------------------------------------------- *)

let obs_energy component =
  Registry.gauge ~help:"Cumulative attributed energy per component (mJ)"
    "profile_energy_mj"
    [ ("component", component) ]

(* Collapsed-stack segments may not contain the format's own
   separators. *)
let clean_segment s =
  String.map (function ';' | ' ' | '\n' -> '_' | c -> c) s

let bump tbl key mj =
  match Hashtbl.find_opt tbl key with
  | Some cell -> cell := !cell +. mj
  | None -> Hashtbl.add tbl key (ref mj)

let record_in p ?scene ~component mj =
  if Float.is_finite mj then begin
    let base = Trace.current_path () in
    let path =
      base
      @ (match scene with
        | Some i -> [ "scene." ^ string_of_int i ]
        | None -> [])
      @ [ component ]
    in
    let now = Clock.now_ns () in
    (* Resolved before taking the profile lock: the gauge lookup takes
       the registry mutex, and nothing here needs both at once. *)
    let energy_gauge = obs_energy component in
    with_lock p (fun () ->
        p.samples <- p.samples + 1;
        bump p.stacks path mj;
        bump p.components component mj;
        Metrics.Gauge.add energy_gauge mj;
        (* One counter sample per recording, carrying every
           component's cumulative total: Perfetto stacks the args
           into an area chart of energy over (wall-clock) time. *)
        let values =
          Hashtbl.fold (fun c cell acc -> (c, !cell) :: acc) p.components []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        p.counters <-
          { Trace.c_name = "energy_mj"; c_ts_ns = now; c_values = values }
          :: p.counters)
  end

let record ?scene ~component mj =
  if Control.on () then
    match Atomic.get instance with
    | None -> ()
    | Some p -> record_in p ?scene ~component mj

(* --- readbacks ---------------------------------------------------------- *)

let samples p = with_lock p (fun () -> p.samples)

let compare_paths a b = compare (a : string list) b

let stacks p =
  with_lock p (fun () ->
      Hashtbl.fold (fun path cell acc -> (path, !cell) :: acc) p.stacks []
      |> List.sort (fun (a, _) (b, _) -> compare_paths a b))

let by_component p =
  with_lock p (fun () ->
      Hashtbl.fold (fun c cell acc -> (c, !cell) :: acc) p.components []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let total_mj p =
  List.fold_left (fun acc (_, mj) -> acc +. mj) 0. (by_component p)

let counter_events p = with_lock p (fun () -> List.rev p.counters)

(* --- rendering ---------------------------------------------------------- *)

(* Collapsed-stack format: one [seg;seg;... value] line per path,
   integer values. Joules are tiny at session scale, so the unit is
   the microjoule — enough resolution that no real stack rounds to
   zero while flamegraph.pl-style folders still get integers. *)
let flamegraph p =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (path, mj) ->
      let uj = int_of_float (Float.round (mj *. 1000.)) in
      Buffer.add_string buf
        (String.concat ";" (List.map clean_segment path));
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int uj);
      Buffer.add_char buf '\n')
    (stacks p);
  Buffer.contents buf

let pp_summary ppf p =
  let components = by_component p in
  Format.fprintf ppf "@[<v>energy profile: %.3f mJ over %d samples@,"
    (total_mj p) (samples p);
  List.iter
    (fun (c, mj) -> Format.fprintf ppf "  %-12s %10.3f mJ@," c mj)
    components;
  Format.fprintf ppf "@]"

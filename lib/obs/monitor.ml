type breach = { window : int; at_s : float; value : float }

type verdict = {
  rule : Slo.rule;
  evaluated : int;
  breached : int;
  worst : float option;
  final : float option;
  final_breach : bool;
  breaches : breach list;
}

type report = {
  window_s : float;
  windows : int;
  duration_s : float;
  verdicts : verdict list;
}

let max_breaches = 8

(* Known window-series names, declared by the instrumentation sites
   that feed them; the offline SLO checker reads this back. *)
(* guarded_by: declared_mutex *)
let declared : (string, unit) Hashtbl.t = Hashtbl.create 16
let declared_mutex = Mutex.create ()

let declare_series name =
  Mutex.lock declared_mutex;
  Hashtbl.replace declared name ();
  Mutex.unlock declared_mutex;
  name

let declared_series () =
  Mutex.lock declared_mutex;
  let names =
    Hashtbl.fold (fun name () acc -> name :: acc) declared []
    |> List.sort String.compare
  in
  Mutex.unlock declared_mutex;
  names

let frames_series = declare_series "frames"

(* The monitor mutex is held across every mutation below, but by the
   *public* entry points (tick/cut/report/incr/set_gauge): the
   internal helpers (window_reading, evaluate_window, seal_window)
   are lock-required functions, so the fields are declared owned
   rather than guarded — the ownership argument is the call
   discipline, not a per-access lock witness. *)
type rule_stats = {
  mutable evaluated : int;  (* owned_by: lock-required helpers under t.mutex *)
  mutable breached : int;  (* owned_by: lock-required helpers under t.mutex *)
  mutable worst : float option;  (* owned_by: lock-required helpers under t.mutex *)
  mutable breaches_rev : breach list;
      (* owned_by: lock-required helpers under t.mutex; newest first, capped *)
}

(* One windowed series: the open window's accumulation, the last
   gauge value (carried across windows until overwritten) and the
   lifetime total over every window. Sealing a window zeroes
   [open_total] and nothing else. *)
type series = {
  mutable open_total : float;  (* owned_by: lock-required helpers under t.mutex *)
  mutable last : float option;  (* owned_by: lock-required helpers under t.mutex *)
  mutable lifetime : float;  (* owned_by: lock-required helpers under t.mutex *)
}

(* Windows close every simulated second, and early at scene cuts. *)
let window_len = 1.0

type t = {
  registry : Registry.t;
  rule_list : Slo.rule list;
  stats : rule_stats array;
  series : (string, series) Hashtbl.t;  (* owned_by: lock-required helpers under t.mutex *)
  mutable now_s : float;  (* owned_by: lock-required helpers under t.mutex *)
  mutable window_start_s : float;  (* owned_by: lock-required helpers under t.mutex *)
  mutable window_index : int;  (* owned_by: lock-required helpers under t.mutex *)
  mutex : Mutex.t;
}

let create ?(registry = Registry.default) ?(rules = []) () =
  {
    registry;
    rule_list = rules;
    stats =
      Array.init (List.length rules) (fun _ ->
          { evaluated = 0; breached = 0; worst = None; breaches_rev = [] });
    series = Hashtbl.create 16;
    now_s = 0.;
    window_start_s = 0.;
    window_index = 0;
    mutex = Mutex.create ();
  }

let rules t = t.rule_list

let series t name =
  match Hashtbl.find_opt t.series name with
  | Some se -> se
  | None ->
    let se = { open_total = 0.; last = None; lifetime = 0. } in
    Hashtbl.add t.series name se;
    se

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let incr t ?(by = 1) name =
  let by = float_of_int by in
  with_lock t (fun () ->
      let se = series t name in
      se.open_total <- se.open_total +. by;
      se.lifetime <- se.lifetime +. by)

let set_gauge t name v = with_lock t (fun () -> (series t name).last <- Some v)

(* A window is "worse" the further it moves against the operator: for
   upper bounds (< / <=) that is the maximum reading, for lower bounds
   the minimum, and for equality the reading furthest from the
   target. *)
let worse_of (rule : Slo.rule) prev v =
  match prev with
  | None -> Some v
  | Some w -> (
    match rule.Slo.op with
    | Slo.Lt | Slo.Le -> Some (Float.max w v)
    | Slo.Gt | Slo.Ge -> Some (Float.min w v)
    | Slo.Eq ->
      if Float.abs (v -. rule.Slo.threshold) >= Float.abs (w -. rule.Slo.threshold)
      then Some v
      else Some w)

(* Reading of [rule] over the just-finished window, before its series
   are sealed. [None] means the rule has nothing to say this window. *)
let window_reading t (rule : Slo.rule) ~duration_s =
  match rule.stat with
  | Slo.Quantile q -> Registry.quantile_of_family ~registry:t.registry rule.metric q
  | Slo.Rate_per_s -> (
    match Hashtbl.find_opt t.series rule.metric with
    | None -> Some 0.
    | Some se -> Some (se.open_total /. duration_s))
  | Slo.Ratio_per_frame -> (
    match Hashtbl.find_opt t.series frames_series with
    | None -> None
    | Some frames ->
      let n = frames.open_total in
      if n <= 0. then None
      else
        let c =
          match Hashtbl.find_opt t.series rule.metric with
          | None -> 0.
          | Some se -> se.open_total
        in
        Some (c /. n))
  | Slo.Last -> (
    match Hashtbl.find_opt t.series rule.metric with
    | None -> None
    | Some se -> se.last)

let evaluate_window t ~at_s ~duration_s =
  List.iteri
    (fun i (rule : Slo.rule) ->
      match window_reading t rule ~duration_s with
      | None -> ()
      | Some v ->
        let s = t.stats.(i) in
        s.evaluated <- s.evaluated + 1;
        s.worst <- worse_of rule s.worst v;
        if not (Slo.holds rule.op ~value:v ~threshold:rule.threshold) then begin
          s.breached <- s.breached + 1;
          if List.length s.breaches_rev < max_breaches then
            s.breaches_rev <-
              { window = t.window_index; at_s; value = v } :: s.breaches_rev;
          Journal.record ~t_s:at_s
            (Journal.Slo_breach
               {
                 rule = rule.Slo.source;
                 window = t.window_index;
                 value_milli =
                   (if Float.is_finite v then
                      int_of_float (Float.round (v *. 1000.))
                    else 0);
                 window_us = int_of_float (Float.round (duration_s *. 1e6));
               })
        end)
    t.rule_list

let seal_window t ~close_at =
  let duration_s = close_at -. t.window_start_s in
  evaluate_window t ~at_s:close_at ~duration_s;
  (* lint: allow L003 closes every live window; visit order cannot reach output *)
  Hashtbl.iter (fun _ se -> se.open_total <- 0.) t.series;
  t.window_index <- t.window_index + 1;
  t.window_start_s <- close_at

let tick t ~now_s =
  with_lock t (fun () ->
      if now_s > t.now_s then t.now_s <- now_s;
      while t.now_s -. t.window_start_s >= window_len do
        (* lint: allow C004 sealing must be atomic with window rotation;
           the registry/journal/log mutexes it reaches are leaf locks *)
        seal_window t ~close_at:(t.window_start_s +. window_len)
      done)

let cut t ~now_s =
  tick t ~now_s;
  with_lock t (fun () ->
      (* lint: allow C004 sealing must be atomic with window rotation; the locks it reaches are leaf locks *)
      if t.now_s > t.window_start_s then seal_window t ~close_at:t.now_s)

(* End-of-session reading over the whole run, for the FINAL column. *)
let final_reading t (rule : Slo.rule) ~duration_s =
  match rule.stat with
  | Slo.Quantile q -> Registry.quantile_of_family ~registry:t.registry rule.metric q
  | Slo.Rate_per_s ->
    if duration_s <= 0. then None
    else
      let total =
        match Hashtbl.find_opt t.series rule.metric with
        | None -> 0.
        | Some se -> se.lifetime
      in
      Some (total /. duration_s)
  | Slo.Ratio_per_frame -> (
    match Hashtbl.find_opt t.series frames_series with
    | None -> None
    | Some frames ->
      let n = frames.lifetime in
      if n <= 0. then None
      else
        let c =
          match Hashtbl.find_opt t.series rule.metric with
          | None -> 0.
          | Some se -> se.lifetime
        in
        Some (c /. n))
  | Slo.Last -> (
    match Hashtbl.find_opt t.series rule.metric with
    | None -> None
    | Some se -> se.last)

let report t =
  with_lock t (fun () ->
      (* lint: allow C004 sealing must be atomic with window rotation; the locks it reaches are leaf locks *)
      if t.now_s > t.window_start_s then seal_window t ~close_at:t.now_s;
      let duration_s = t.now_s in
      let verdicts =
        List.mapi
          (fun i rule ->
            let s = t.stats.(i) in
            (* lint: allow C004 whole-run reading under the report lock: the registry mutex it takes is a leaf lock *)
            let final = final_reading t rule ~duration_s in
            let final_breach =
              match final with
              | None -> false
              | Some v ->
                not (Slo.holds rule.Slo.op ~value:v ~threshold:rule.Slo.threshold)
            in
            {
              rule;
              evaluated = s.evaluated;
              breached = s.breached;
              worst = s.worst;
              final;
              final_breach;
              breaches = List.rev s.breaches_rev;
            })
          t.rule_list
      in
      { window_s = window_len; windows = t.window_index; duration_s; verdicts })

let verdict_ok (v : verdict) = v.breached = 0 && not v.final_breach

let healthy r = List.for_all verdict_ok r.verdicts

let float_str v = Printf.sprintf "%.6g" v

let opt_str = function None -> "-" | Some v -> float_str v

let pp_report ppf r =
  let open Format in
  fprintf ppf "@[<v>";
  fprintf ppf "=== health report ===@,";
  fprintf ppf "simulated %.6gs covered, %d windows of %.6gs, %d rules@,"
    r.duration_s r.windows r.window_s (List.length r.verdicts);
  if r.verdicts = [] then fprintf ppf "(no rules loaded)@,"
  else begin
    let rows =
      List.map
        (fun v ->
          ( v.rule.Slo.source,
            Printf.sprintf "%d/%d" v.breached v.evaluated,
            opt_str v.worst,
            opt_str v.final,
            (if verdict_ok v then "ok" else "BREACH") ))
        r.verdicts
    in
    let w1 =
      List.fold_left (fun acc (a, _, _, _, _) -> max acc (String.length a)) 4 rows
    in
    let w2 =
      List.fold_left (fun acc (_, b, _, _, _) -> max acc (String.length b)) 7 rows
    in
    let w3 =
      List.fold_left (fun acc (_, _, c, _, _) -> max acc (String.length c)) 5 rows
    in
    let w4 =
      List.fold_left (fun acc (_, _, _, d, _) -> max acc (String.length d)) 5 rows
    in
    fprintf ppf "%-*s  %*s  %*s  %*s  %s@," w1 "rule" w2 "breach" w3 "worst" w4
      "final" "verdict";
    List.iter
      (fun (a, b, c, d, e) ->
        fprintf ppf "%-*s  %*s  %*s  %*s  %s@," w1 a w2 b w3 c w4 d e)
      rows;
    List.iter
      (fun v ->
        List.iter
          (fun b ->
            fprintf ppf "  breach: %s -> %s in window %d @@ %.6gs@,"
              v.rule.Slo.source (float_str b.value) b.window b.at_s)
          v.breaches;
        if v.final_breach then
          fprintf ppf "  breach: %s -> %s over the whole session@,"
            v.rule.Slo.source (opt_str v.final))
      r.verdicts
  end;
  if healthy r then fprintf ppf "overall: OK"
  else
    fprintf ppf "overall: BREACH (%d of %d rules)"
      (List.length (List.filter (fun v -> not (verdict_ok v)) r.verdicts))
      (List.length r.verdicts);
  fprintf ppf "@]"

let report_to_json r =
  let fopt = function None -> Json.Null | Some v -> Json.Float v in
  Json.Obj
    [
      ("window_s", Json.Float r.window_s);
      ("windows", Json.Int r.windows);
      ("duration_s", Json.Float r.duration_s);
      ("healthy", Json.Bool (healthy r));
      ( "rules",
        Json.List
          (List.map
             (fun v ->
               Json.Obj
                 [
                   ("rule", Json.String v.rule.Slo.source);
                   ("evaluated", Json.Int v.evaluated);
                   ("breached", Json.Int v.breached);
                   ("worst", fopt v.worst);
                   ("final", fopt v.final);
                   ("ok", Json.Bool (verdict_ok v));
                   ( "breaches",
                     Json.List
                       (List.map
                          (fun b ->
                            Json.Obj
                              [
                                ("window", Json.Int b.window);
                                ("at_s", Json.Float b.at_s);
                                ("value", Json.Float b.value);
                              ])
                          v.breaches) );
                 ])
             r.verdicts) );
    ]

let instance : t option Atomic.t = Atomic.make None

let install t =
  Atomic.set instance (Some t);
  Control.set_monitor true

let uninstall () =
  Atomic.set instance None;
  Control.set_monitor false

let installed () = Atomic.get instance

let count ?by name =
  if Control.on () then
    match Atomic.get instance with
    | Some t -> incr t ?by name
    | None -> ()

let gauge name v =
  if Control.on () then
    match Atomic.get instance with
    | Some t -> set_gauge t name v
    | None -> ()

let advance ~now_s =
  if Control.on () then
    match Atomic.get instance with Some t -> tick t ~now_s | None -> ()

let scene_cut ~now_s =
  if Control.on () then
    match Atomic.get instance with Some t -> cut t ~now_s | None -> ()

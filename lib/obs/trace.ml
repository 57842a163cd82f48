type span = {
  name : string;
  attrs : (string * string) list;
  start_ns : int64;
  duration_ns : int64;
  children : span list;
}

(* Span under construction: children accumulate in reverse. *)
type building = {
  b_name : string;
  b_attrs : (string * string) list;
  b_start_ns : int64;
  mutable b_children : span list;
      (* owned_by: the domain building the span; the open-span stack is
         domain-confined (see below) *)
}

(* The collector is process-global. The open-span stack is not
   shared across domains — concurrent instrumented work from several
   domains is not a workload this simulator has — but the mutex keeps
   the completed-roots list coherent if it ever happens. *)
let mutex = Mutex.create ()

(* owned_by: the instrumenting domain; the open-span stack is not
   shared across domains (see the note above) *)
let stack : building list ref = ref []

(* guarded_by: mutex *)
let completed_roots : span list ref = ref []

let recorded = Atomic.make 0

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let finish b =
  let duration_ns = Clock.elapsed_ns ~since:b.b_start_ns in
  {
    name = b.b_name;
    attrs = b.b_attrs;
    start_ns = b.b_start_ns;
    duration_ns;
    children = List.rev b.b_children;
  }

let with_span ?(attrs = []) name f =
  if not (Control.on ()) then f ()
  else begin
    let b =
      { b_name = name; b_attrs = attrs; b_start_ns = Clock.now_ns (); b_children = [] }
    in
    with_lock (fun () -> stack := b :: !stack);
    Fun.protect
      ~finally:(fun () ->
        let span = finish b in
        Atomic.incr recorded;
        with_lock (fun () ->
            (match !stack with
            | top :: rest when top == b -> stack := rest
            | _ ->
              (* A span escaped its dynamic extent (effects, exotic
                 control flow): drop back to the roots rather than
                 corrupting the stack. *)
              stack := List.filter (fun s -> not (s == b)) !stack);
            match !stack with
            | parent :: _ -> parent.b_children <- span :: parent.b_children
            | [] -> completed_roots := span :: !completed_roots))
      f
  end

let roots () = with_lock (fun () -> List.rev !completed_roots)

let current_path () =
  with_lock (fun () -> List.rev_map (fun b -> b.b_name) !stack)

let reset () =
  with_lock (fun () ->
      stack := [];
      completed_roots := []);
  Atomic.set recorded 0

let span_count () = Atomic.get recorded

type hotspot = {
  h_name : string;
  h_count : int;
  h_total_ns : int64;
  h_max_ns : int64;
}

let critical_path ?(top = 10) () =
  let tbl : (string, int * int64 * int64) Hashtbl.t = Hashtbl.create 16 in
  let rec visit s =
    let c, tot, mx =
      Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0L, 0L)
    in
    Hashtbl.replace tbl s.name
      ( c + 1,
        Int64.add tot s.duration_ns,
        if Int64.compare s.duration_ns mx > 0 then s.duration_ns else mx );
    List.iter visit s.children
  in
  List.iter visit (roots ());
  Hashtbl.fold
    (fun name (c, tot, mx) acc ->
      { h_name = name; h_count = c; h_total_ns = tot; h_max_ns = mx } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match Int64.compare b.h_total_ns a.h_total_ns with
         | 0 -> String.compare a.h_name b.h_name
         | c -> c)
  |> List.filteri (fun i _ -> i < top)

let hotspots_to_json hotspots =
  Json.List
    (List.map
       (fun h ->
         Json.Obj
           [
             ("span", Json.String h.h_name);
             ("count", Json.Int h.h_count);
             ("total_ms", Json.Float (Clock.ns_to_s h.h_total_ns *. 1e3));
             ("max_ms", Json.Float (Clock.ns_to_s h.h_max_ns *. 1e3));
           ])
       hotspots)

let pp_flame ppf () =
  let rec pp_span ~indent ~parent_ns s =
    let ms = Clock.ns_to_s s.duration_ns *. 1e3 in
    let share =
      if Int64.compare parent_ns 0L > 0 then
        Printf.sprintf " (%.0f%%)"
          (100. *. Int64.to_float s.duration_ns /. Int64.to_float parent_ns)
      else ""
    in
    let attrs =
      match s.attrs with
      | [] -> ""
      | attrs ->
        " [" ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs) ^ "]"
    in
    Format.fprintf ppf "%s%s %.3f ms%s%s@," (String.make indent ' ') s.name ms
      share attrs;
    List.iter (pp_span ~indent:(indent + 2) ~parent_ns:s.duration_ns) s.children
  in
  Format.fprintf ppf "@[<v>";
  List.iter (pp_span ~indent:0 ~parent_ns:0L) (roots ());
  Format.fprintf ppf "@]"

type counter = {
  c_name : string;
  c_ts_ns : int64;
  c_values : (string * float) list;
}

let to_chrome_json ?(counters = []) () =
  (* Perfetto tolerates out-of-order "X" events but renders "C"
     counter tracks against the running timeline, so the combined
     stream must be in timestamp order. Tag every event with its
     start and stable-sort at the end — DFS emission order alone only
     covers the span-only case. *)
  let events = ref [] in
  let rec emit s =
    events :=
      ( s.start_ns,
        Json.Obj
          [
            ("name", Json.String s.name);
            ("cat", Json.String "obs");
            ("ph", Json.String "X");
            ("ts", Json.Float (Clock.ns_to_us s.start_ns));
            ("dur", Json.Float (Clock.ns_to_us s.duration_ns));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.attrs) );
          ] )
      :: !events;
    List.iter emit s.children
  in
  List.iter emit (roots ());
  List.iter
    (fun c ->
      events :=
        ( c.c_ts_ns,
          Json.Obj
            [
              ("name", Json.String c.c_name);
              ("cat", Json.String "obs");
              ("ph", Json.String "C");
              ("ts", Json.Float (Clock.ns_to_us c.c_ts_ns));
              ("pid", Json.Int 1);
              ( "args",
                Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) c.c_values)
              );
            ] )
        :: !events)
    counters;
  List.rev !events
  |> List.stable_sort (fun (a, _) (b, _) -> Int64.compare a b)
  |> List.map snd
  |> fun sorted -> Json.List sorted

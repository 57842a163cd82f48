type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type event = {
  ts_ns : int64;
  level : level;
  scope : string;
  message : string;
  fields : (string * Json.t) list;
}

let event_to_json e =
  Json.Obj
    ([
       ("ts_ns", Json.Float (Int64.to_float e.ts_ns));
       ("level", Json.String (level_name e.level));
       ("scope", Json.String e.scope);
       ("message", Json.String e.message);
     ]
    @ match e.fields with [] -> [] | fields -> [ ("fields", Json.Obj fields) ])

type sink_id = int

type sink = { id : sink_id; write : event -> unit; close : unit -> unit }

let mutex = Mutex.create ()

(* guarded_by: mutex *)
let sinks : sink list ref = ref []

(* guarded_by: mutex *)
let next_id = ref 0

let threshold = Atomic.make (severity Info)

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let attach_sink write close =
  with_lock (fun () ->
      incr next_id;
      let id = !next_id in
      sinks := { id; write; close } :: !sinks;
      id)

let attach write = attach_sink write (fun () -> ())

let detach id =
  with_lock (fun () ->
      let closing = List.filter (fun s -> s.id = id) !sinks in
      sinks := List.filter (fun s -> s.id <> id) !sinks;
      List.iter (fun s -> s.close ()) closing)

let attach_jsonl ~path =
  let oc = open_out path in
  attach_sink
    (fun e ->
      output_string oc (Json.to_string (event_to_json e));
      output_char oc '\n';
      flush oc)
    (fun () -> close_out oc)

let attach_ring ~capacity =
  if capacity <= 0 then invalid_arg "Obs.Log.attach_ring: capacity must be positive";
  let ring = Array.make capacity None in
  let write_pos = ref 0 in
  let ring_mutex = Mutex.create () in
  let write e =
    Mutex.lock ring_mutex;
    ring.(!write_pos mod capacity) <- Some e;
    incr write_pos;
    Mutex.unlock ring_mutex
  in
  let read () =
    Mutex.lock ring_mutex;
    let n = !write_pos in
    let events = ref [] in
    let first = if n > capacity then n - capacity else 0 in
    for i = n - 1 downto first do
      match ring.(i mod capacity) with
      | Some e -> events := e :: !events
      | None -> ()
    done;
    Mutex.unlock ring_mutex;
    !events
  in
  (attach write, read)

let set_level l = Atomic.set threshold (severity l)

let get_level () =
  match Atomic.get threshold with
  | 0 -> Debug
  | 1 -> Info
  | 2 -> Warn
  | _ -> Error

let would_log level =
  Control.on ()
  && severity level >= Atomic.get threshold
  (* lint: allow C002 racy fast-path by design: a stale read only skips
     (or needlessly formats) one message; dispatch re-snapshots the sink
     list under the lock before writing *)
  && !sinks <> []

let dispatch e =
  (* Snapshot the sink list under the lock, write outside it so a slow
     sink cannot block attachment. *)
  let current = with_lock (fun () -> !sinks) in
  List.iter (fun s -> s.write e) current

let emit level ~scope ?(fields = []) message =
  if would_log level then
    dispatch { ts_ns = Clock.now_ns (); level; scope; message; fields }

let lazily level ~scope make =
  if would_log level then begin
    let message, fields = make () in
    dispatch { ts_ns = Clock.now_ns (); level; scope; message; fields }
  end

let debug ~scope make = lazily Debug ~scope make

let info ~scope make = lazily Info ~scope make

let warn ~scope make = lazily Warn ~scope make

let error ~scope make = lazily Error ~scope make

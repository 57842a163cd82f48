(* Flight recorder: append-only decision log with the same
   varint+CRC32 framing discipline as Annotation.Encoding (both on
   Wire.Binary). Events are integers and short strings only — no
   floats — so the serialised journal of a deterministic run is itself
   byte-deterministic. *)

type trigger = Record_lost | Record_corrupt | Header_lost

type kind =
  | Session_start of {
      clip : string;
      device : string;
      quality : string;
      frames : int;
      fps_milli : int;
    }
  | Scene_decision of {
      scene : int;
      first_frame : int;
      frame_count : int;
      register : int;
      effective_max : int;
      compensation_fp : int;
      clipped_permille : int;
      quality_permille : int;
      candidates : int list;
    }
  | Scene_cut of { scene : int; frame : int }
  | Backlight_switch of { frame : int; from_register : int; to_register : int }
  | Deadline_miss of { frame : int; over_us : int }
  | Channel of { packets : int; delivered : int }
  | Nack_round of { round : int; missing : int; repaired : int }
  | Fec_outcome of { failed_groups : int; repaired_packets : int }
  | Degradation of { index : int; trigger : trigger; policy : string }
  | Dvfs_choice of { policy : string; mean_mhz : int; misses : int }
  | Slo_breach of {
      rule : string;
      window : int;
      value_milli : int;
      window_us : int;
    }
  | Session_end of {
      survived : bool;
      degraded_scenes : int;
      retransmissions : int;
      corrupt_records : int;
    }
  | Ladder_step of { scene : int; depth : int; step : string }
  | Breaker_transition of {
      name : string;
      from_state : int;
      to_state : int;
      failure_permille : int;
    }
  | Bulkhead_decision of {
      name : string;
      decision : string;
      in_flight : int;
      queued : int;
    }
  | Watchdog_trip of { stage : string; budget_us : int; over_us : int }
  | Fleet_shard_start of { shard : int; shards : int; sessions : int }
  | Fleet_arrival of { session : int; clip : string }
  | Fleet_admission of {
      session : int;
      decision : string;
      in_flight : int;
      queued : int;
    }
  | Fleet_session_end of {
      session : int;
      outcome : string;
      degraded_scenes : int;
    }

type event = { t_us : int; kind : kind }

let magic = "AJNL"

let version = 1

(* Annotate events replay the clip timeline, transmit events the NACK
   budget, playback events the playback clock, fleet events the
   scheduler's arrival clock: independent simulated clocks, so
   monotonicity only holds per phase (and resets at every
   Session_start — and at every Fleet_shard_start, whose phase-0
   marker lets per-shard journals concatenate into one fleet journal
   without tripping the per-phase monotonicity audit). *)
let phase = function
  | Session_start _ | Bulkhead_decision _ | Fleet_shard_start _ -> 0
  | Scene_decision _ -> 1
  | Channel _ | Nack_round _ | Fec_outcome _ | Degradation _ | Ladder_step _
  | Breaker_transition _ | Watchdog_trip _ ->
    2
  | Scene_cut _ | Backlight_switch _ | Deadline_miss _ | Dvfs_choice _
  | Slo_breach _ ->
    3
  | Session_end _ -> 4
  | Fleet_arrival _ | Fleet_admission _ | Fleet_session_end _ -> 5

(* --- recorder ----------------------------------------------------------- *)

type t = {
  mutex : Mutex.t;
  mutable events_rev : event list;  (* guarded_by: mutex *)
  mutable count : int;  (* guarded_by: mutex *)
}

let create () = { mutex = Mutex.create (); events_rev = []; count = 0 }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record_in t ?(t_s = 0.) kind =
  let t_us =
    if Float.is_finite t_s && t_s > 0. then
      int_of_float (Float.round (t_s *. 1e6))
    else 0
  in
  with_lock t (fun () ->
      t.events_rev <- { t_us; kind } :: t.events_rev;
      t.count <- t.count + 1)

let events t = with_lock t (fun () -> List.rev t.events_rev)

let length t = with_lock t (fun () -> t.count)

(* Atomic rather than a plain ref: [record] races with
   [install]/[uninstall] when pool domains journal while the driver
   swaps recorders, and a torn option read would be undefined
   behaviour under the memory model. *)
let instance : t option Atomic.t = Atomic.make None

let install t = Atomic.set instance (Some t)

let uninstall () = Atomic.set instance None

let current () = Atomic.get instance

let installed () = Option.is_some (Atomic.get instance)

let record ?t_s kind =
  if Control.on () then
    match Atomic.get instance with
    | None -> ()
    | Some t -> record_in t ?t_s kind

(* --- writing ------------------------------------------------------------ *)

(* Signed fields (the SLO breach reading can sit below zero) ride as
   zigzag varints. *)
let zigzag n = (n lsl 1) lxor (n asr 62)

let unzigzag v = (v lsr 1) lxor (-(v land 1))

let trigger_tag = function
  | Record_lost -> 0
  | Record_corrupt -> 1
  | Header_lost -> 2

let encode_payload buf { t_us; kind } =
  let tag n = Buffer.add_char buf (Char.chr n) in
  let v = Wire.Binary.put_varint buf in
  let s = Wire.Binary.put_string buf in
  (match kind with
  | Session_start _ -> tag 1
  | Scene_decision _ -> tag 2
  | Scene_cut _ -> tag 3
  | Backlight_switch _ -> tag 4
  | Deadline_miss _ -> tag 5
  | Channel _ -> tag 6
  | Nack_round _ -> tag 7
  | Fec_outcome _ -> tag 8
  | Degradation _ -> tag 9
  | Dvfs_choice _ -> tag 10
  | Slo_breach _ -> tag 11
  | Session_end _ -> tag 12
  | Ladder_step _ -> tag 13
  | Breaker_transition _ -> tag 14
  | Bulkhead_decision _ -> tag 15
  | Watchdog_trip _ -> tag 16
  | Fleet_shard_start _ -> tag 17
  | Fleet_arrival _ -> tag 18
  | Fleet_admission _ -> tag 19
  | Fleet_session_end _ -> tag 20);
  v t_us;
  match kind with
  | Session_start e ->
    s e.clip;
    s e.device;
    s e.quality;
    v e.frames;
    v e.fps_milli
  | Scene_decision e ->
    v e.scene;
    v e.first_frame;
    v e.frame_count;
    v e.register;
    v e.effective_max;
    v e.compensation_fp;
    v e.clipped_permille;
    v e.quality_permille;
    v (List.length e.candidates);
    List.iter v e.candidates
  | Scene_cut e ->
    v e.scene;
    v e.frame
  | Backlight_switch e ->
    v e.frame;
    v e.from_register;
    v e.to_register
  | Deadline_miss e ->
    v e.frame;
    v e.over_us
  | Channel e ->
    v e.packets;
    v e.delivered
  | Nack_round e ->
    v e.round;
    v e.missing;
    v e.repaired
  | Fec_outcome e ->
    v e.failed_groups;
    v e.repaired_packets
  | Degradation e ->
    if e.index < -1 then invalid_arg "Journal: degradation index below -1";
    v (e.index + 1);
    tag (trigger_tag e.trigger);
    s e.policy
  | Dvfs_choice e ->
    s e.policy;
    v e.mean_mhz;
    v e.misses
  | Slo_breach e ->
    s e.rule;
    v e.window;
    v (zigzag e.value_milli);
    v e.window_us
  | Session_end e ->
    tag (if e.survived then 1 else 0);
    v e.degraded_scenes;
    v e.retransmissions;
    v e.corrupt_records
  | Ladder_step e ->
    if e.scene < -1 then invalid_arg "Journal: ladder scene below -1";
    v (e.scene + 1);
    v e.depth;
    s e.step
  | Breaker_transition e ->
    s e.name;
    v e.from_state;
    v e.to_state;
    v e.failure_permille
  | Bulkhead_decision e ->
    s e.name;
    s e.decision;
    v e.in_flight;
    v e.queued
  | Watchdog_trip e ->
    s e.stage;
    v e.budget_us;
    v e.over_us
  | Fleet_shard_start e ->
    v e.shard;
    v e.shards;
    v e.sessions
  | Fleet_arrival e ->
    v e.session;
    s e.clip
  | Fleet_admission e ->
    v e.session;
    s e.decision;
    v e.in_flight;
    v e.queued
  | Fleet_session_end e ->
    v e.session;
    s e.outcome;
    v e.degraded_scenes

let encode events =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Wire.Binary.put_u32 buf (Wire.Binary.crc32 (Buffer.contents buf));
  let payload = Buffer.create 64 in
  List.iter
    (fun event ->
      Buffer.clear payload;
      encode_payload payload event;
      Wire.Binary.put_varint buf (Buffer.length payload);
      Buffer.add_buffer buf payload;
      Wire.Binary.put_u32 buf (Wire.Binary.crc32 (Buffer.contents payload)))
    events;
  Buffer.contents buf

let to_string t = encode (events t)

let size_bytes t = String.length (to_string t)

let write t ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

(* --- reading ------------------------------------------------------------ *)

(* A payload that frames fine but breaks the event schema. *)
exception Schema of string

let max_string_len = 4096

let str c = Wire.Binary.get_string ~max:max_string_len c "string"
let int c = Wire.Binary.get_varint c "field"
let byte c = Wire.Binary.get_u8 c "field"

let get_trigger c =
  match byte c with
  | 0 -> Record_lost
  | 1 -> Record_corrupt
  | 2 -> Header_lost
  | n -> raise (Schema (Printf.sprintf "unknown degradation trigger %d" n))

let get_candidates c =
  let n = int c in
  if n > 256 then raise (Schema "implausible candidate count");
  (* Explicit loop: the reads must happen left to right. *)
  let rec loop k acc =
    if k = 0 then List.rev acc else loop (k - 1) (int c :: acc)
  in
  loop n []

let decode_kind c tag =
  match tag with
  | 1 ->
    let clip = str c in
    let device = str c in
    let quality = str c in
    let frames = int c in
    let fps_milli = int c in
    Session_start { clip; device; quality; frames; fps_milli }
  | 2 ->
    let scene = int c in
    let first_frame = int c in
    let frame_count = int c in
    let register = int c in
    let effective_max = int c in
    let compensation_fp = int c in
    let clipped_permille = int c in
    let quality_permille = int c in
    let candidates = get_candidates c in
    Scene_decision
      {
        scene;
        first_frame;
        frame_count;
        register;
        effective_max;
        compensation_fp;
        clipped_permille;
        quality_permille;
        candidates;
      }
  | 3 ->
    let scene = int c in
    let frame = int c in
    Scene_cut { scene; frame }
  | 4 ->
    let frame = int c in
    let from_register = int c in
    let to_register = int c in
    Backlight_switch { frame; from_register; to_register }
  | 5 ->
    let frame = int c in
    let over_us = int c in
    Deadline_miss { frame; over_us }
  | 6 ->
    let packets = int c in
    let delivered = int c in
    Channel { packets; delivered }
  | 7 ->
    let round = int c in
    let missing = int c in
    let repaired = int c in
    Nack_round { round; missing; repaired }
  | 8 ->
    let failed_groups = int c in
    let repaired_packets = int c in
    Fec_outcome { failed_groups; repaired_packets }
  | 9 ->
    let index = int c - 1 in
    let trigger = get_trigger c in
    let policy = str c in
    Degradation { index; trigger; policy }
  | 10 ->
    let policy = str c in
    let mean_mhz = int c in
    let misses = int c in
    Dvfs_choice { policy; mean_mhz; misses }
  | 11 ->
    let rule = str c in
    let window = int c in
    let value_milli = unzigzag (int c) in
    let window_us = int c in
    Slo_breach { rule; window; value_milli; window_us }
  | 12 ->
    let survived = byte c <> 0 in
    let degraded_scenes = int c in
    let retransmissions = int c in
    let corrupt_records = int c in
    Session_end { survived; degraded_scenes; retransmissions; corrupt_records }
  | 13 ->
    let scene = int c - 1 in
    let depth = int c in
    let step = str c in
    Ladder_step { scene; depth; step }
  | 14 ->
    let name = str c in
    let from_state = int c in
    let to_state = int c in
    let failure_permille = int c in
    Breaker_transition { name; from_state; to_state; failure_permille }
  | 15 ->
    let name = str c in
    let decision = str c in
    let in_flight = int c in
    let queued = int c in
    Bulkhead_decision { name; decision; in_flight; queued }
  | 16 ->
    let stage = str c in
    let budget_us = int c in
    let over_us = int c in
    Watchdog_trip { stage; budget_us; over_us }
  | 17 ->
    let shard = int c in
    let shards = int c in
    let sessions = int c in
    Fleet_shard_start { shard; shards; sessions }
  | 18 ->
    let session = int c in
    let clip = str c in
    Fleet_arrival { session; clip }
  | 19 ->
    let session = int c in
    let decision = str c in
    let in_flight = int c in
    let queued = int c in
    Fleet_admission { session; decision; in_flight; queued }
  | 20 ->
    let session = int c in
    let outcome = str c in
    let degraded_scenes = int c in
    Fleet_session_end { session; outcome; degraded_scenes }
  | n -> raise (Schema (Printf.sprintf "unknown event kind %d" n))

(* Parses one payload in place: the cursor is bounded by the frame. *)
let read_event c =
  let tag = byte c in
  let t_us = int c in
  let kind = decode_kind c tag in
  if c.Wire.Binary.pos <> c.limit then
    raise (Schema "trailing bytes in event payload");
  { t_us; kind }

(* A frame longer than this cannot come from [encode]; treating it as
   valid would let one flipped length byte swallow the rest of the
   journal. *)
let max_frame_len = 65536

type header_error =
  | Bad_magic
  | Missing_version
  | Bad_version of int
  | Missing_header_crc
  | Bad_header_crc

let check_header data =
  let len = String.length data in
  if not (String.starts_with ~prefix:magic data) then Error Bad_magic
  else if len < 5 then Error Missing_version
  else if Char.code data.[4] <> version then
    Error (Bad_version (Char.code data.[4]))
  else if len < 9 then Error Missing_header_crc
  else if
    Wire.Binary.get_u32 (Wire.Binary.cursor ~pos:5 data) "header CRC"
    <> Wire.Binary.crc32_sub data ~pos:0 ~len:5
  then Error Bad_header_crc
  else Ok ()

type status = Event of event | Bad_crc | Bad_payload of string

type broken = { index : int; offset : int; error : Wire.Binary.error }

let read_frame c =
  let module B = Wire.Binary in
  let len = B.get_varint c "frame length" in
  if len > max_frame_len then
    B.fail c "frame" (B.Too_long { len; cap = max_frame_len });
  B.need c (len + 4) "frame";
  let data = c.B.data and start = c.pos in
  c.pos <- start + len;
  if B.get_u32 c "frame CRC" <> B.crc32_sub data ~pos:start ~len then Bad_crc
  else
    match read_event (B.cursor ~pos:start ~limit:(start + len) data) with
    | event -> Event event
    | exception B.Error e -> Bad_payload (B.message e)
    | exception Schema msg -> Bad_payload msg

let walk data ~init f =
  match check_header data with
  | Error e -> Error e
  | Ok () ->
    let c = Wire.Binary.cursor ~pos:9 data in
    let rec frames acc index =
      if c.Wire.Binary.pos = c.limit then Ok (acc, None)
      else
        let offset = c.pos in
        match read_frame c with
        | exception Wire.Binary.Error error ->
          Ok (acc, Some { index; offset; error })
        | status -> frames (f acc ~index ~offset status) (index + 1)
    in
    frames init 0

let header_message = function
  | Bad_magic -> "bad magic: not a decision journal"
  | Missing_version -> "truncated header"
  | Bad_version v -> Printf.sprintf "unsupported journal version %d" v
  | Missing_header_crc -> "truncated header CRC"
  | Bad_header_crc -> "header CRC mismatch"

(* The fold carries the current run's phase and its latest stamp; a
   phase change, a Session_start or a Fleet_shard_start starts a fresh
   run. *)
type clock = { run_phase : int; last_us : int }

let start_clock = { run_phase = -1; last_us = -1 }

let tick c { t_us; kind } =
  let run_phase =
    match kind with
    | Session_start _ | Fleet_shard_start _ -> -1
    | _ -> c.run_phase
  in
  let ph = phase kind in
  let last = if ph <> run_phase then -1 else c.last_us in
  ( { run_phase = ph; last_us = max t_us last },
    if t_us < last then
      Some
        (Printf.sprintf "timestamp %dus runs backwards within phase %d (last %dus)"
           t_us ph last)
    else None )

exception Rejected of string

let decode data =
  let frame (events, clock) ~index:_ ~offset:_ = function
    | Event e -> (
      match tick clock e with
      | clock, None -> (e :: events, clock)
      | _, Some msg -> raise (Rejected msg))
    | Bad_crc -> raise (Rejected "frame CRC mismatch")
    | Bad_payload msg -> raise (Rejected msg)
  in
  match walk data ~init:([], start_clock) frame with
  | Error e -> Error (header_message e)
  | Ok ((events, _), None) -> Ok (List.rev events)
  | Ok (_, Some b) -> Error (Wire.Binary.message b.error)
  | exception Rejected msg -> Error msg

type partial = {
  events : event list;
  corrupt_frames : int;
  truncated : bool;
  error : string option;
}

let decode_partial data =
  let corrupt = ref 0 in
  let frame events ~index:_ ~offset:_ = function
    | Event e -> e :: events
    | Bad_crc | Bad_payload _ ->
      incr corrupt;
      events
  in
  match walk data ~init:[] frame with
  | Error e ->
    { events = []; corrupt_frames = 0; truncated = false; error = Some (header_message e) }
  | Ok (events, broken) ->
    (* A broken length varint means the framing itself cannot be
       trusted past this point: stop instead of resyncing on noise. *)
    {
      events = List.rev events;
      corrupt_frames = !corrupt;
      truncated = Option.is_some broken;
      error = None;
    }

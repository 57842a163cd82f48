let version = 2

let magic = "ANPW"

let gain_fixed_point = 4096.

let record_size = 15
(* first_frame u24, frame_count u24, register u8, compensation u24,
   effective u8, crc32 u32 — see the .mli layout. *)

(* --- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_sub data ~pos ~len =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code data.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let crc32 data = crc32_sub data ~pos:0 ~len:(String.length data)

(* --- writing ---------------------------------------------------------- *)

let put_varint buf n =
  if n < 0 then invalid_arg "Encoding: negative varint";
  let rec loop n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      loop (n lsr 7)
    end
  in
  loop n

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

(* Fixed-width fields reject out-of-range values by name instead of
   wrapping: a clip past ~16.7M frames or a compensation gain
   overflowing the fixed point must fail the encode loudly — wrapped
   bytes would still CRC as valid and decode into garbage. *)
let put_u24 buf ~field n =
  if n < 0 || n > 0xffffff then
    invalid_arg (Printf.sprintf "Encoding: %s %d out of u24 range" field n);
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff))

let put_u8 buf ~field n =
  if n < 0 || n > 0xff then
    invalid_arg (Printf.sprintf "Encoding: %s %d out of u8 range" field n);
  Buffer.add_char buf (Char.chr n)

let put_u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let quality_permille q =
  int_of_float ((Quality_level.allowed_loss q *. 1000.) +. 0.5)

let put_header buf track count =
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  put_varint buf (quality_permille track.Track.quality);
  put_varint buf (int_of_float ((track.Track.fps *. 1000.) +. 0.5));
  put_varint buf track.Track.total_frames;
  put_string buf track.Track.clip_name;
  put_string buf track.Track.device_name;
  put_varint buf count;
  put_u32 buf (crc32_sub (Buffer.contents buf) ~pos:0 ~len:(Buffer.length buf))

let encode track =
  let track = Track.merge_runs track in
  let buf = Buffer.create 256 in
  put_header buf track (Array.length track.Track.entries);
  let record = Buffer.create record_size in
  Array.iter
    (fun (e : Track.entry) ->
      Buffer.clear record;
      put_u24 record ~field:"first_frame" e.first_frame;
      put_u24 record ~field:"frame_count" e.frame_count;
      put_u8 record ~field:"register" e.register;
      put_u24 record ~field:"compensation gain"
        (int_of_float ((e.compensation *. gain_fixed_point) +. 0.5));
      put_u8 record ~field:"effective_max" e.effective_max;
      put_u32 record (crc32 (Buffer.contents record));
      Buffer.add_buffer buf record)
    track.Track.entries;
  Buffer.contents buf

let encoded_size track = String.length (encode track)

(* --- reading ---------------------------------------------------------- *)

exception Parse_error of string

type cursor = { data : string; mutable pos : int (* owned_by: the decoding call; a cursor never escapes it *) }

let need c n =
  if c.pos + n > String.length c.data then raise (Parse_error "truncated input")

let get_byte c =
  need c 1;
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

let get_varint c =
  let rec loop shift acc =
    if shift > 56 then raise (Parse_error "varint too long");
    let b = get_byte c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if acc < 0 then raise (Parse_error "varint overflow");
    if b land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

let get_string c =
  let n = get_varint c in
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_u24 c =
  need c 3;
  let b i = Char.code c.data.[c.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) in
  c.pos <- c.pos + 3;
  v

let get_u32 c =
  need c 4;
  let b i = Char.code c.data.[c.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  c.pos <- c.pos + 4;
  v

let quality_of_permille p =
  match p with
  | 0 -> Quality_level.Lossless
  | 50 -> Quality_level.Loss_5
  | 100 -> Quality_level.Loss_10
  | 150 -> Quality_level.Loss_15
  | 200 -> Quality_level.Loss_20
  | p -> Quality_level.Custom (float_of_int p /. 1000.)

type header = {
  h_quality : Quality_level.t;
  h_fps : float;
  h_total_frames : int;
  h_clip_name : string;
  h_device_name : string;
  h_count : int;
}

(* Reads the header and checks its CRC. The cursor is left at the
   first record byte. *)
let get_header c =
  need c 4;
  if String.sub c.data 0 4 <> magic then raise (Parse_error "bad magic");
  c.pos <- 4;
  let v = get_byte c in
  if v <> version then
    raise (Parse_error (Printf.sprintf "unsupported version %d" v));
  let h_quality = quality_of_permille (get_varint c) in
  let h_fps = float_of_int (get_varint c) /. 1000. in
  let h_total_frames = get_varint c in
  let h_clip_name = get_string c in
  let h_device_name = get_string c in
  let h_count = get_varint c in
  let covered = c.pos in
  if get_u32 c <> crc32_sub c.data ~pos:0 ~len:covered then
    raise (Parse_error "header CRC mismatch");
  { h_quality; h_fps; h_total_frames; h_clip_name; h_device_name; h_count }

(* Rejects a header whose declared record count cannot match the bytes
   that follow, *before* anything walks (or allocates for) the
   records: a truncated or tampered header must not trigger an
   unbounded [Array.make] or a CRC walk off the end of the payload.
   Division keeps the comparison overflow-safe for adversarial
   counts. *)
let check_count_fits h c =
  let remaining = String.length c.data - c.pos in
  if remaining mod record_size <> 0 || h.h_count <> remaining / record_size
  then raise (Parse_error "record section length mismatch")

let dummy_entry =
  { Track.first_frame = 0; frame_count = 1; register = 0; compensation = 1.;
    effective_max = 0 }

(* Parses one record body (CRC already verified). *)
let get_entry c =
  let first_frame = get_u24 c in
  let frame_count = get_u24 c in
  let register = get_byte c in
  let compensation = float_of_int (get_u24 c) /. gain_fixed_point in
  let effective_max = get_byte c in
  { Track.first_frame; frame_count; register; compensation; effective_max }

let get_entries c count =
  let entries = Array.make count dummy_entry in
  for i = 0 to count - 1 do
    let body_pos = c.pos in
    let entry = get_entry c in
    let stored = get_u32 c in
    if stored <> crc32_sub c.data ~pos:body_pos ~len:(record_size - 4) then
      raise (Parse_error "record CRC mismatch");
    entries.(i) <- entry
  done;
  entries

let decode data =
  let c = { data; pos = 0 } in
  try
    let h = get_header c in
    check_count_fits h c;
    let entries = get_entries c h.h_count in
    if c.pos <> String.length data then raise (Parse_error "trailing bytes");
    (try
       Ok
         (Track.make ~clip_name:h.h_clip_name ~device_name:h.h_device_name
            ~quality:h.h_quality ~fps:h.h_fps ~total_frames:h.h_total_frames
            entries)
     with Invalid_argument msg -> Error msg)
  with Parse_error msg -> Error msg

(* --- partial decode --------------------------------------------------- *)

type record = Intact of Track.entry | Lost | Corrupt

type partial = {
  clip_name : string;
  device_name : string;
  quality : Quality_level.t;
  fps : float;
  total_frames : int;
  records : record array;
  corrupt_records : int;
  missing_records : int;
}

let span_ok byte_ok ~pos ~len =
  match byte_ok with
  | None -> true
  | Some ok ->
    let good = ref true in
    for i = pos to pos + len - 1 do
      if not ok.(i) then good := false
    done;
    !good

let decode_partial ?byte_ok data =
  (match byte_ok with
  | Some ok when Array.length ok <> String.length data ->
    invalid_arg "Encoding.decode_partial: byte_ok length mismatch"
  | _ -> ());
  let c = { data; pos = 0 } in
  try
    let h = get_header c in
    if not (span_ok byte_ok ~pos:0 ~len:c.pos) then
      raise (Parse_error "header bytes lost in transit");
    check_count_fits h c;
    let corrupt = ref 0 and missing = ref 0 in
    let next = ref 0 in
    let records = Array.make h.h_count Lost in
    for i = 0 to h.h_count - 1 do
      let pos = c.pos in
      if not (span_ok byte_ok ~pos ~len:record_size) then begin
        c.pos <- pos + record_size;
        incr missing
      end
      else begin
        let entry = get_entry c in
        let stored = get_u32 c in
        let valid =
          stored = crc32_sub data ~pos ~len:(record_size - 4)
          && entry.Track.frame_count > 0
          && entry.Track.compensation >= 1.
          && entry.Track.first_frame >= !next
          && entry.Track.first_frame + entry.Track.frame_count
             <= h.h_total_frames
        in
        if valid then begin
          next := entry.Track.first_frame + entry.Track.frame_count;
          records.(i) <- Intact entry
        end
        else begin
          records.(i) <- Corrupt;
          incr corrupt
        end
      end
    done;
    Ok
      {
        clip_name = h.h_clip_name;
        device_name = h.h_device_name;
        quality = h.h_quality;
        fps = h.h_fps;
        total_frames = h.h_total_frames;
        records;
        corrupt_records = !corrupt;
        missing_records = !missing;
      }
  with Parse_error msg -> Error msg

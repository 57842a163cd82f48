let version = 2

let magic = "ANPW"

let gain_fixed_point = 4096.

let record_size = 15
(* first_frame u24, frame_count u24, register u8, compensation u24,
   effective u8, crc32 u32 — see the .mli layout. *)

(* Header bounds: a name no player would show, a frame rate no panel
   runs at, a clip longer than u24 record spans can address. *)
let max_name_len = 4096
let max_fps_milli = 1_000_000
let max_frames = 0xffffff

(* --- reading ---------------------------------------------------------- *)

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

type rule =
  | Magic
  | Version
  | Truncated
  | Header_crc
  | Field
  | Record_count
  | Record_crc
  | Order
  | Span
  | Compensation
  | Coverage

type problem = { rule : rule; message : string }

let arrived byte_ok ~pos ~len =
  match byte_ok with
  | None -> true
  | Some ok -> not (Array.exists not (Array.sub ok pos len))

let malformed data (e : Wire.Binary.error) =
  match e.failure with
  | Wire.Binary.Truncated n ->
    ( Truncated,
      Printf.sprintf "truncated stream: %s at byte %d needs %d byte(s), %d left"
        e.what e.at n
        (String.length data - e.at) )
  | Varint_too_long ->
    (Field, Printf.sprintf "%s: varint longer than 8 bytes at byte %d" e.what e.at)
  | Varint_overflow ->
    (Field, Printf.sprintf "%s: varint overflows at byte %d" e.what e.at)
  | Too_long { len; cap } ->
    (Field, Printf.sprintf "%s: implausible length %d (cap %d)" e.what len cap)

let coverage covered total =
  Printf.sprintf "records cover %d of %d frames" covered total

type header = {
  quality : Quality_level.t;
  fps_milli : int;
  total_frames : int;
  clip_name : string;
  device_name : string;
  count : int;
}

exception Unusable

(* Reads the header from the start of the cursor's string and leaves
   the cursor at the first record. Fields are judged as they are read,
   so a stream cut later in the header still names them; [Unusable]
   once a header rule broke that leaves nothing after it worth
   reading. *)
let read_header ~broke ?byte_ok (c : Wire.Binary.cursor) =
  let module B = Wire.Binary in
  let stop rule message =
    broke rule message;
    raise Unusable
  in
  if not (String.starts_with ~prefix:magic c.data) then
    stop Magic "bad magic: not an annotation stream";
  c.pos <- String.length magic;
  let v = B.get_u8 c "version" in
  if v <> version then
    stop Version (Printf.sprintf "unsupported version %d (know %d)" v version);
  let quality = Quality_level.of_permille (B.get_varint c "quality") in
  Result.iter_error (broke Field) quality;
  let fps_milli = B.get_varint c "fps" in
  if fps_milli = 0 then broke Field "fps is zero"
  else if fps_milli > max_fps_milli then
    broke Field
      (Printf.sprintf "fps %.3f is implausible" (float_of_int fps_milli /. 1000.));
  let total_frames = B.get_varint c "total_frames" in
  if total_frames > max_frames then
    broke Field
      (Printf.sprintf "total_frames %d exceeds the u24 span limit %d" total_frames
         max_frames);
  let clip_name = B.get_string ~max:max_name_len c "clip name" in
  let device_name = B.get_string ~max:max_name_len c "device name" in
  let count = B.get_varint c "record count" in
  let covered = c.pos in
  if B.get_u32 c "header CRC" <> B.crc32_sub c.data ~pos:0 ~len:covered then
    stop Header_crc "header CRC mismatch: header fields cannot be trusted";
  if not (arrived byte_ok ~pos:0 ~len:c.pos) then
    stop Truncated "header bytes lost in transit";
  (* Division keeps the comparison overflow-safe for adversarial
     counts, so nothing walks (or allocates for) records that a
     tampered header merely claims. *)
  let rest = c.limit - c.pos in
  if rest mod record_size <> 0 || count <> rest / record_size then
    stop Record_count
      (Printf.sprintf
         "declared record count %d disagrees with %d payload byte(s) (%d byte \
          records); refusing to walk records"
         count rest record_size);
  if count = 0 && total_frames <> 0 then broke Coverage (coverage 0 total_frames);
  match quality with
  | Ok quality -> { quality; fps_milli; total_frames; clip_name; device_name; count }
  | Error _ -> raise Unusable

(* Judges each record in turn. A record is [Intact] only when it
   breaks no record rule; the frame it must start at is exact after an
   intact record, and a lower bound once a record was lost or corrupt.
   [header.count] records fit the bytes, so no read can fail. *)
let read_records ~broke ?byte_ok h (c : Wire.Binary.cursor) =
  let module B = Wire.Binary in
  let next = ref 0 and exact = ref true in
  Array.init h.count (fun i ->
      let offset = c.pos in
      if not (arrived byte_ok ~pos:offset ~len:record_size) then begin
        c.pos <- offset + record_size;
        exact := false;
        Lost
      end
      else begin
        let first_frame = B.get_u24 c "first_frame" in
        let frame_count = B.get_u24 c "frame_count" in
        let register = B.get_u8 c "register" in
        let compensation =
          float_of_int (B.get_u24 c "compensation") /. gain_fixed_point
        in
        let effective_max = B.get_u8 c "effective max" in
        let intact = ref true in
        let fault rule fmt =
          Printf.ksprintf
            (fun s ->
              intact := false;
              broke rule (Printf.sprintf "record %d (byte %d): %s" i offset s))
            fmt
        in
        let stop = first_frame + frame_count in
        let crc = B.crc32_sub c.data ~pos:offset ~len:(record_size - 4) in
        if B.get_u32 c "record CRC" <> crc then fault Record_crc "record CRC mismatch"
        else begin
          if frame_count = 0 then fault Span "zero frame_count";
          if !exact && first_frame <> !next then
            fault Order "first_frame %d breaks scene-index monotonicity (expected %d)"
              first_frame !next
          else if first_frame < !next then
            fault Order
              "first_frame %d breaks scene-index monotonicity (expected at least %d)"
              first_frame !next;
          if stop > h.total_frames then
            fault Span "span %d+%d exceeds total_frames %d" first_frame frame_count
              h.total_frames;
          if compensation < 1. then
            fault Compensation "compensation %.4f below 1.0" compensation;
          if !intact && i = h.count - 1 && stop <> h.total_frames then begin
            intact := false;
            broke Coverage (coverage stop h.total_frames)
          end
        end;
        exact := !intact;
        if !intact then begin
          next := stop;
          Intact { Track.first_frame; frame_count; register; compensation; effective_max }
        end
        else Corrupt
      end)

let judge ?byte_ok data =
  (match byte_ok with
  | Some ok when Array.length ok <> String.length data ->
    invalid_arg "Encoding.decode_partial: byte_ok length mismatch"
  | _ -> ());
  let problems = ref [] in
  let broke rule message = problems := { rule; message } :: !problems in
  let c = Wire.Binary.cursor data in
  let header =
    match read_header ~broke ?byte_ok c with
    | h -> Some h
    | exception Unusable -> None
    | exception Wire.Binary.Error e ->
      let rule, message = malformed data e in
      broke rule message;
      None
  in
  match header with
  | Some h when !problems = [] ->
    let records = read_records ~broke ?byte_ok h c in
    let tally r = Array.fold_left (fun n x -> if x = r then n + 1 else n) 0 records in
    ( Ok
        {
          clip_name = h.clip_name;
          device_name = h.device_name;
          quality = h.quality;
          fps = float_of_int h.fps_milli /. 1000.;
          total_frames = h.total_frames;
          records;
          corrupt_records = tally Corrupt;
          missing_records = tally Lost;
        },
      List.rev !problems )
  | _ ->
    (* A header is unusable only once a header rule broke. *)
    let problems = List.rev !problems in
    (Error (List.hd problems).message, problems)

let decode_partial ?byte_ok data = fst (judge ?byte_ok data)

let decode data =
  match judge data with
  | Error msg, _ -> Error msg
  | Ok _, p :: _ -> Error p.message
  | Ok p, [] ->
    (* Breaking no rule, every record is intact and they tile the
       clip: this is a valid track without [Track.make]'s re-check. *)
    Ok
      {
        Track.clip_name = p.clip_name;
        device_name = p.device_name;
        quality = p.quality;
        fps = p.fps;
        total_frames = p.total_frames;
        entries =
          Array.of_list
            (List.filter_map
               (function Intact e -> Some e | Lost | Corrupt -> None)
               (Array.to_list p.records));
      }

(* --- writing ---------------------------------------------------------- *)

(* Fixed-width fields reject out-of-range values by name instead of
   wrapping: a clip past ~16.7M frames or a compensation gain
   overflowing the fixed point must fail the encode loudly — wrapped
   bytes would still CRC as valid and decode into garbage. *)
let put_u24 buf ~field n =
  if n < 0 || n > 0xffffff then
    invalid_arg (Printf.sprintf "Encoding: %s %d out of u24 range" field n);
  Wire.Binary.put_u24 buf n

let put_u8 buf ~field n =
  if n < 0 || n > 0xff then
    invalid_arg (Printf.sprintf "Encoding: %s %d out of u8 range" field n);
  Buffer.add_char buf (Char.chr n)

let quality_permille q =
  int_of_float ((Quality_level.allowed_loss q *. 1000.) +. 0.5)

let put_header buf track count =
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Wire.Binary.put_varint buf (quality_permille track.Track.quality);
  Wire.Binary.put_varint buf (int_of_float ((track.Track.fps *. 1000.) +. 0.5));
  Wire.Binary.put_varint buf track.Track.total_frames;
  Wire.Binary.put_string buf track.Track.clip_name;
  Wire.Binary.put_string buf track.Track.device_name;
  Wire.Binary.put_varint buf count;
  Wire.Binary.put_u32 buf (Wire.Binary.crc32 (Buffer.contents buf))

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
      Wire.Binary.put_u32 record (Wire.Binary.crc32 (Buffer.contents record));
      Buffer.add_buffer buf record)
    track.Track.entries;
  let data = Buffer.contents buf in
  (* The writer obeys the readers' rule: a stream [decode] would refuse
     is never written. *)
  match judge data with
  | _, [] -> data
  | _, p :: _ -> invalid_arg ("Encoding.encode: " ^ p.message)

let encoded_size track = String.length (encode track)

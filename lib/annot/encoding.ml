let version = 2

let magic = "ANPW"

let gain_fixed_point = 4096.

let record_size = 15
(* first_frame u24, frame_count u24, register u8, compensation u24,
   effective u8, crc32 u32 — see the .mli layout. *)

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
  Buffer.contents buf

let encoded_size track = String.length (encode track)

(* --- reading ---------------------------------------------------------- *)

(* One walk of the layout, shared by [decode], [decode_partial] and the
   offline verifier (Check.Artifact): the readers return raw fields and
   CRC verdicts, and each caller decides what a problem means. *)

type field = Quality_permille | Fps_milli | Total_frames

type header = {
  quality_permille : int;
  fps_milli : int;
  total_frames : int;
  clip_name : string;
  device_name : string;
  count : int;
  crc_ok : bool;
  fits : bool;
}

type header_error = Bad_magic | Bad_version of int | Malformed of Wire.Binary.error

let read_header ?(on_field = fun _ _ -> ()) ?max_name (c : Wire.Binary.cursor) =
  let module B = Wire.Binary in
  if not (String.starts_with ~prefix:magic c.data) then Error Bad_magic
  else begin
    c.pos <- String.length magic;
    try
      let v = B.get_u8 c "version" in
      if v <> version then Error (Bad_version v)
      else begin
        let field what f =
          let n = B.get_varint c what in
          on_field f n;
          n
        in
        let quality_permille = field "quality" Quality_permille in
        let fps_milli = field "fps" Fps_milli in
        let total_frames = field "total_frames" Total_frames in
        let clip_name = B.get_string ?max:max_name c "clip name" in
        let device_name = B.get_string ?max:max_name c "device name" in
        let count = B.get_varint c "record count" in
        let covered = c.pos in
        let crc_ok = B.get_u32 c "header CRC" = B.crc32_sub c.data ~pos:0 ~len:covered in
        (* Division keeps the comparison overflow-safe for adversarial
           counts, so nothing walks (or allocates for) records that a
           tampered header merely claims. *)
        let rest = c.limit - c.pos in
        let fits = rest mod record_size = 0 && count = rest / record_size in
        Ok { quality_permille; fps_milli; total_frames; clip_name; device_name; count; crc_ok; fits }
      end
    with B.Error e -> Error (Malformed e)
  end

let read_record (c : Wire.Binary.cursor) =
  let module B = Wire.Binary in
  let pos = c.pos in
  let first_frame = B.get_u24 c "first_frame" in
  let frame_count = B.get_u24 c "frame_count" in
  let register = B.get_u8 c "register" in
  let compensation = float_of_int (B.get_u24 c "compensation") /. gain_fixed_point in
  let effective_max = B.get_u8 c "effective max" in
  if B.get_u32 c "record CRC" <> B.crc32_sub c.data ~pos ~len:(record_size - 4)
  then None
  else Some { Track.first_frame; frame_count; register; compensation; effective_max }

let quality_of_permille p =
  match p with
  | 0 -> Quality_level.Lossless
  | 50 -> Quality_level.Loss_5
  | 100 -> Quality_level.Loss_10
  | 150 -> Quality_level.Loss_15
  | 200 -> Quality_level.Loss_20
  | p -> Quality_level.Custom (float_of_int p /. 1000.)

exception Parse_error of string

let fail msg = raise (Parse_error msg)

let span_ok byte_ok ~pos ~len =
  match byte_ok with
  | None -> true
  | Some ok ->
    let good = ref true in
    for i = pos to pos + len - 1 do
      if not ok.(i) then good := false
    done;
    !good

(* The header both decoders trust — read, CRC-checked, arrived, and
   followed by exactly its records — with the decoders' messages. *)
let trusted_header ?byte_ok c =
  match read_header c with
  | Error Bad_magic ->
    fail
      (if String.length c.Wire.Binary.data < String.length magic then
         "truncated input"
       else "bad magic")
  | Error (Bad_version v) -> fail (Printf.sprintf "unsupported version %d" v)
  | Error (Malformed e) -> fail (Wire.Binary.message e)
  | Ok h when not h.crc_ok -> fail "header CRC mismatch"
  | Ok _ when not (span_ok byte_ok ~pos:0 ~len:c.pos) ->
    fail "header bytes lost in transit"
  | Ok h when not h.fits -> fail "record section length mismatch"
  | Ok h when h.quality_permille > 1000 ->
    fail (Printf.sprintf "quality %d permille exceeds 1000" h.quality_permille)
  | Ok h -> h

let decode data =
  let c = Wire.Binary.cursor data in
  try
    let h = trusted_header c in
    let entries =
      Array.init h.count (fun _ ->
          match read_record c with
          | Some e -> e
          | None -> fail "record CRC mismatch")
    in
    try
      Ok
        (Track.make ~clip_name:h.clip_name ~device_name:h.device_name
           ~quality:(quality_of_permille h.quality_permille)
           ~fps:(float_of_int h.fps_milli /. 1000.)
           ~total_frames:h.total_frames entries)
    with Invalid_argument msg -> Error msg
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

let decode_partial ?byte_ok data =
  (match byte_ok with
  | Some ok when Array.length ok <> String.length data ->
    invalid_arg "Encoding.decode_partial: byte_ok length mismatch"
  | _ -> ());
  let c = Wire.Binary.cursor data in
  try
    let h = trusted_header ?byte_ok c in
    let corrupt = ref 0 and missing = ref 0 in
    let next = ref 0 in
    let records =
      Array.init h.count (fun _ ->
          let pos = c.pos in
          if not (span_ok byte_ok ~pos ~len:record_size) then begin
            c.pos <- pos + record_size;
            incr missing;
            Lost
          end
          else
            match read_record c with
            | Some e
              when e.Track.frame_count > 0
                   && e.Track.compensation >= 1.
                   && e.Track.first_frame >= !next
                   && e.Track.first_frame + e.Track.frame_count
                      <= h.total_frames ->
              next := e.Track.first_frame + e.Track.frame_count;
              Intact e
            | Some _ | None ->
              incr corrupt;
              Corrupt)
    in
    Ok
      {
        clip_name = h.clip_name;
        device_name = h.device_name;
        quality = quality_of_permille h.quality_permille;
        fps = float_of_int h.fps_milli /. 1000.;
        total_frames = h.total_frames;
        records;
        corrupt_records = !corrupt;
        missing_records = !missing;
      }
  with Parse_error msg -> Error msg

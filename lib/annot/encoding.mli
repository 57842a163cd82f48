(** Binary wire format for annotation tracks.

    §4.3: "The annotations are RLE compressed, so the overhead is
    minimal, in the order of hundreds of bytes for our video clips
    which are on the order of a few megabytes."

    Layout (varints are LEB128; u24/u32 little-endian):

    {v
    magic   "ANPW"            4 bytes
    version u8                2; any other version is rejected
    quality varint            allowed loss in permille, at most 1000
    fps     varint            fps * 1000, in 1..1000000
    frames  varint            total frame count, at most 2^24 - 1
    names   2 x (len varint, bytes)   clip name, device name (<= 4096 bytes)
    count   varint            entry count (after run merging)
    hcrc    u32               CRC32 over every byte above
    records count x 15 bytes:
            first_frame u24, frame_count u24, register u8,
            compensation u24 (gain * 4096), effective u8,
            crc u32 (CRC32 over the record's first 11 bytes)
    v}

    Records are fixed-size and self-describing (they carry their own
    [first_frame]), so a client that loses or corrupts part of the
    payload can still place every surviving record — see
    {!decode_partial}.

    The byte layer (CRC32, varints, u24/u32, strings) is
    {!Wire.Binary}; this module owns the layout and the rules a stream
    must satisfy. {!judge} is the one walk: {!decode}, {!decode_partial},
    {!encode} and the offline verifier
    ({!Check.Artifact.check_annotation}) all use its verdict and differ
    only in what they make of a problem. *)

val encode : Track.t -> string
(** [encode track] serialises after {!Track.merge_runs}. Raises
    [Invalid_argument] naming the field rather than write a stream
    {!judge} rejects (fps above 1000, a name over 4096 bytes, 2^24
    frames, entries that do not tile the clip) or wrap a value past
    its fixed-width slot into bytes that would still CRC as valid. *)

val decode : string -> (Track.t, string) result
(** [decode bytes] is [Ok] exactly when {!judge} finds no problem;
    otherwise [Error] with the first problem's message, never an
    exception. *)

type record =
  | Intact of Track.entry
  | Lost  (** the record overlaps bytes that never arrived *)
  | Corrupt  (** its bytes arrived but it breaks a record rule *)

type partial = {
  clip_name : string;
  device_name : string;
  quality : Quality_level.t;
  fps : float;
  total_frames : int;
  records : record array;  (** one slot per encoded record, in order *)
  corrupt_records : int;  (** the [Corrupt] slots *)
  missing_records : int;  (** the [Lost] slots *)
}

val decode_partial : ?byte_ok:bool array -> string -> (partial, string) result
(** [decode_partial ?byte_ok bytes] salvages what it can from a
    damaged payload: the first component of {!judge}. [byte_ok.(i) =
    false] marks byte [i] as lost in transit (e.g. an unrecovered FEC
    group zero-filled by {!Streaming.Fec}); defaults to all-true. An
    [Ok] has a header that arrived and broke no rule, and records
    [Lost] where they overlap lost bytes, [Corrupt] where they break a
    record rule, and [Intact] otherwise — so the lost and corrupt
    slots alone can be filled into a valid track. Raises
    [Invalid_argument] when [byte_ok] does not match [bytes] in
    length. *)

val encoded_size : Track.t -> int
(** [encoded_size track] is [String.length (encode track)] — the
    overhead the bench reports against the encoded video size. *)

val record_size : int
(** Size in bytes of one fixed record (currently 15). *)

val version : int

(** {1 The judgement}

    Every rule a stream must satisfy, checked in one walk.

    Header rules: the magic, {!version}, a header that is not cut and
    whose CRC matches; quality through {!Quality_level.of_permille};
    0 < fps <= 1000; [total_frames] <= 2^24 - 1; names at most 4096
    bytes; the bytes after the header are exactly the declared
    records; a header declaring no records declares no frames. A header
    that breaks one is unusable, and no record is judged.

    Record rules: the record CRC matches; [frame_count] > 0;
    compensation >= 1; a record starts where the previous record ended
    when that one was intact, and no earlier than the last intact
    record's end once a record was lost or corrupt; its span fits in
    [total_frames]; an intact last record ends at [total_frames]. *)

type rule =
  | Magic  (** not an annotation stream *)
  | Version  (** a version other than {!version} *)
  | Truncated  (** the bytes end inside the header, or header bytes were lost *)
  | Header_crc
  | Field  (** a header field out of range, or a malformed varint or name *)
  | Record_count  (** the bytes after the header are not the declared records *)
  | Record_crc
  | Order  (** a record does not start where the records before it end *)
  | Span  (** an empty record, or one running past [total_frames] *)
  | Compensation  (** a compensation gain below 1 *)
  | Coverage  (** the records do not end at [total_frames] *)

type problem = { rule : rule; message : string }
(** A message names the record and its byte offset where there is
    one. *)

val judge :
  ?byte_ok:bool array -> string -> (partial, string) result * problem list
(** [judge ?byte_ok bytes] is {!decode_partial}'s result and every
    problem the walk met, in stream order. The list is empty exactly
    when the stream is valid; lost bytes are no problem of the stream,
    only of its delivery, unless they hit the header. Raises as
    {!decode_partial} does. *)

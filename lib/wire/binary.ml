(* CRC32 (IEEE 802.3, reflected, poly 0xEDB88320). *)
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

(* --- writing ----------------------------------------------------------- *)

let put_varint buf n =
  if n < 0 then invalid_arg "Wire.Binary.put_varint: negative value";
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

let put_u24 buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff))

let put_u32 buf n =
  put_u24 buf n;
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

(* --- reading ----------------------------------------------------------- *)

type failure =
  | Truncated of int
  | Varint_too_long
  | Varint_overflow
  | Too_long of { len : int; cap : int }

type error = { what : string; at : int; failure : failure }

exception Error of error

let message e =
  match e.failure with
  | Truncated _ -> "truncated input"
  | Varint_too_long -> "varint too long"
  | Varint_overflow -> "varint overflow"
  | Too_long _ -> "implausible " ^ e.what ^ " length"

type cursor = {
  data : string;
  mutable pos : int;  (* owned_by: the decoding call; a cursor never escapes it *)
  limit : int;
}

let cursor ?(pos = 0) ?limit data =
  { data; pos; limit = Option.value limit ~default:(String.length data) }

let fail c what failure = raise (Error { what; at = c.pos; failure })
(* Compared as [n > limit - pos]: a declared length near [max_int]
   must not overflow the sum and pass. *)
let need c n what = if n > c.limit - c.pos then fail c what (Truncated n)

let get_u8 c what =
  need c 1 what;
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

let get_le c n what =
  need c n what;
  let v = ref 0 in
  for i = n - 1 downto 0 do
    v := (!v lsl 8) lor Char.code c.data.[c.pos + i]
  done;
  c.pos <- c.pos + n;
  !v

let get_u24 c what = get_le c 3 what
let get_u32 c what = get_le c 4 what

let get_varint c what =
  let rec loop shift acc =
    if shift > 56 then fail c what Varint_too_long;
    let b = get_u8 c what in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if acc < 0 then fail c what Varint_overflow;
    if b land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

let get_string ?(max = max_int) c what =
  let len = get_varint c what in
  if len > max then fail c what (Too_long { len; cap = max });
  need c len what;
  let s = String.sub c.data c.pos len in
  c.pos <- c.pos + len;
  s

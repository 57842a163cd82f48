(* Hand-built version-2 annotation streams: any header fields and any
   records, each CRC valid, with none of the encoder's checks. A
   stream only the semantic rules can reject is made here. *)

type record = {
  first : int;
  count : int;
  register : int;
  gain : int;  (** compensation in the 12.12 fixed point: 4096 is 1.0 *)
  effective : int;
}

let record ?(register = 120) ?(gain = 4096) ?(effective = 150) first count =
  { first; count; register; gain; effective }

let blob ?(quality_permille = 100) ?(fps_milli = 12_000) ?(clip = "clip")
    ?(device = "ipaq_h5555") ~total_frames records =
  let module B = Wire.Binary in
  let b = Buffer.create 128 in
  Buffer.add_string b "ANPW";
  Buffer.add_char b '\002';
  B.put_varint b quality_permille;
  B.put_varint b fps_milli;
  B.put_varint b total_frames;
  B.put_string b clip;
  B.put_string b device;
  B.put_varint b (List.length records);
  B.put_u32 b (B.crc32 (Buffer.contents b));
  List.iter
    (fun r ->
      let rb = Buffer.create 15 in
      B.put_u24 rb r.first;
      B.put_u24 rb r.count;
      Buffer.add_char rb (Char.chr r.register);
      B.put_u24 rb r.gain;
      Buffer.add_char rb (Char.chr r.effective);
      B.put_u32 rb (B.crc32 (Buffer.contents rb));
      Buffer.add_buffer b rb)
    records;
  Buffer.contents b

(* A hand-built stream, every CRC valid: random header fields around
   and past their bounds, and records that mostly tile the clip, with
   a gap, an overlap, an empty or overlong span, a low gain or a short
   tail now and then. *)
let random rng =
  let int n = Random.State.int rng n in
  let pick l = List.nth l (int (List.length l)) in
  let n = int 5 in
  let next = ref 0 in
  let records =
    List.init n (fun _ ->
        let first = if int 8 = 0 then max 0 (!next + int 5 - 2) else !next in
        let count = if int 12 = 0 then 0 else 1 + int 30 in
        next := first + count;
        record ~register:(int 256) ~gain:(if int 10 = 0 then 4000 else 4096 + int 4000)
          ~effective:(int 256) first count)
  in
  let total_frames =
    match int 10 with 0 -> max 0 (!next + 1 - int 3) | 1 -> 0xffffff + int 2 | _ -> !next
  in
  blob
    ~quality_permille:(pick [ 0; 50; 100; 123; 1000; 1001; int 2000 ])
    ~fps_milli:(pick [ 0; 1; 12_000; 1_000_000; 1_000_001 ])
    ~clip:(String.make (if int 20 = 0 then 4097 else int 8) 'c')
    ~device:(pick [ "ipaq_h5555"; "unknown" ])
    ~total_frames records

(* The three hostile streams over an [n]-frame clip that every reader
   must refuse or salvage without raising: a gap between two intact
   records (V109), intact records that stop short of the clip (V114),
   and an fps-0 header (V105). *)
let hostile n =
  let third = n / 3 in
  let second = record ~register:200 in
  [
    ("gap", blob ~total_frames:n [ record 0 third; second (third + 2) (n - third - 2) ]);
    ("short", blob ~total_frames:n [ record 0 third; second third third ]);
    ( "fps zero",
      blob ~fps_milli:0 ~total_frames:n [ record 0 third; second third (n - third) ] );
  ]

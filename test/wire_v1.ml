(* A version-1 annotation blob built by hand: the retired
   varint-packed layout (magic, version 1, header varints, then
   frame_count / register / gain / effective_max per entry, no CRCs).
   The decoder and the verifier must reject it like any other unknown
   version. *)
let blob () =
  let b = Buffer.create 64 in
  let rec varint n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      varint (n lsr 7)
    end
  in
  let str s =
    varint (String.length s);
    Buffer.add_string b s
  in
  Buffer.add_string b "ANPW";
  Buffer.add_char b '\001';
  varint 100 (* quality, permille *);
  varint 8000 (* fps * 1000 *);
  varint 40 (* total frames *);
  str "chaos";
  str "ipaq_h5555";
  varint 2 (* entry count *);
  List.iter
    (fun (count, register, effective) ->
      varint count;
      Buffer.add_char b (Char.chr register);
      varint 4096 (* gain 1.0 *);
      Buffer.add_char b (Char.chr effective))
    [ (20, 120, 150); (20, 255, 255) ];
  Buffer.contents b

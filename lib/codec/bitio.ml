module Writer = struct
  type t = {
    buf : Buffer.t;
    mutable acc : int;  (* bits accumulated, left-aligned in low bits *)
    mutable used : int;  (* number of valid bits in acc, 0-7 *)
    mutable written_bits : int;
  }

  let create () = { buf = Buffer.create 1024; acc = 0; used = 0; written_bits = 0 }

  let put_bit w bit =
    w.acc <- (w.acc lsl 1) lor (if bit then 1 else 0);
    w.used <- w.used + 1;
    w.written_bits <- w.written_bits + 1;
    if w.used = 8 then begin
      Buffer.add_char w.buf (Char.unsafe_chr (w.acc land 0xff));
      w.acc <- 0;
      w.used <- 0
    end

  let put_bits w ~value ~bits =
    if bits < 0 || bits > 62 then invalid_arg "Bitio.put_bits: bits out of [0, 62]";
    if value < 0 then invalid_arg "Bitio.put_bits: negative value";
    if bits < 62 && value lsr bits <> 0 then
      invalid_arg "Bitio.put_bits: value does not fit";
    for i = bits - 1 downto 0 do
      put_bit w ((value lsr i) land 1 = 1)
    done

  let align w = while w.used <> 0 do put_bit w false done

  let put_byte_aligned w b =
    align w;
    put_bits w ~value:(b land 0xff) ~bits:8

  let bit_length w = w.written_bits

  let contents w =
    align w;
    Buffer.contents w.buf
end

module Reader = struct
  type t = { data : string; total_bits : int; mutable bit_pos : int }

  exception Out_of_bits

  let of_string data = { data; total_bits = String.length data * 8; bit_pos = 0 }

  let byte_at r pos = Char.code (String.get r.data (pos lsr 3))

  let get_bit r =
    let pos = r.bit_pos in
    if pos >= r.total_bits then raise Out_of_bits;
    r.bit_pos <- pos + 1;
    (byte_at r pos lsr (7 - (pos land 7))) land 1 = 1

  (* Each step takes the rest of the current byte, or as much of it as
     is still wanted: at most nine steps for 62 bits. *)
  let get_bits r n =
    if n < 0 || n > 62 then invalid_arg "Bitio.get_bits: bits out of [0, 62]";
    if r.bit_pos + n > r.total_bits then raise Out_of_bits;
    let acc = ref 0 and pos = ref r.bit_pos and wanted = ref n in
    while !wanted > 0 do
      let left = 8 - (!pos land 7) in
      let take = if !wanted < left then !wanted else left in
      let bits = (byte_at r !pos lsr (left - take)) land ((1 lsl take) - 1) in
      acc := (!acc lsl take) lor bits;
      pos := !pos + take;
      wanted := !wanted - take
    done;
    r.bit_pos <- !pos;
    !acc

  (* Leading zeros of a byte in [1, 255]. *)
  let leading_zeros b =
    let z = ref 0 in
    while (b lsl !z) land 0x80 = 0 do
      incr z
    done;
    !z

  (* Whole bytes of zeros are counted in one step each; the byte that
     holds the one bit ends the run. *)
  let count_zeros r =
    let pos = ref r.bit_pos and zeros = ref 0 and found = ref false in
    while not !found do
      if !pos >= r.total_bits then raise Out_of_bits;
      let off = !pos land 7 in
      let rest = (byte_at r !pos lsl off) land 0xff in
      if rest = 0 then begin
        zeros := !zeros + (8 - off);
        pos := !pos + (8 - off)
      end
      else begin
        let z = leading_zeros rest in
        zeros := !zeros + z;
        pos := !pos + z + 1;
        found := true
      end
    done;
    r.bit_pos <- !pos;
    !zeros

  let align r =
    let rem = r.bit_pos land 7 in
    if rem <> 0 then begin
      let skip = 8 - rem in
      if r.bit_pos + skip > r.total_bits then raise Out_of_bits;
      r.bit_pos <- r.bit_pos + skip
    end

  let get_byte_aligned r =
    align r;
    get_bits r 8

  let bits_remaining r = r.total_bits - r.bit_pos

  let position_bits r = r.bit_pos
end

type protected_payload = {
  packets : string array;
  data_packets : int;
  group_size : int;
  packet_size : int;
  payload_length : int;
}

(* XOR [packet] into [acc] (packet may be shorter; missing tail is
   zero). *)
let xor_accumulate acc packet =
  String.iteri
    (fun i c ->
      Bytes.set acc i (Char.chr (Char.code (Bytes.get acc i) lxor Char.code c)))
    packet

let protect ?(packet_size = 64) ?(group_size = 4) payload =
  if packet_size <= 0 then invalid_arg "Fec.protect: packet size must be positive";
  if group_size <= 0 then invalid_arg "Fec.protect: group size must be positive";
  let payload_length = String.length payload in
  let data_packets = (payload_length + packet_size - 1) / packet_size in
  let data =
    Array.init data_packets (fun i ->
        let from = i * packet_size in
        String.sub payload from (min packet_size (payload_length - from)))
  in
  let groups = (data_packets + group_size - 1) / group_size in
  let parities =
    Array.init groups (fun g ->
        let acc = Bytes.make packet_size '\000' in
        let first = g * group_size in
        let last = min (data_packets - 1) (first + group_size - 1) in
        for i = first to last do
          xor_accumulate acc data.(i)
        done;
        Bytes.to_string acc)
  in
  {
    packets = Array.append data parities;
    data_packets;
    group_size;
    packet_size;
    payload_length;
  }

let overhead_ratio t =
  if t.payload_length = 0 then 0.
  else begin
    let total =
      Array.fold_left (fun acc p -> acc + String.length p) 0 t.packets
    in
    float_of_int (total - t.payload_length) /. float_of_int t.payload_length
  end

let data_length t i =
  let from = i * t.packet_size in
  min t.packet_size (t.payload_length - from)

let recover t ~present =
  if Array.length present <> Array.length t.packets then
    invalid_arg "Fec.recover: packet array length mismatch";
  let groups = (t.data_packets + t.group_size - 1) / t.group_size in
  let recovered = Array.make t.data_packets "" in
  let failure = ref None in
  for g = 0 to groups - 1 do
    let first = g * t.group_size in
    let last = min (t.data_packets - 1) (first + t.group_size - 1) in
    let missing = ref [] in
    for i = first to last do
      match present.(i) with
      | Some packet -> recovered.(i) <- packet
      | None -> missing := i :: !missing
    done;
    match !missing with
    | [] -> ()
    | [ lone ] -> (
      match present.(t.data_packets + g) with
      | None ->
        if !failure = None then
          failure := Some (Printf.sprintf "group %d lost data and parity" g)
      | Some parity ->
        let acc = Bytes.of_string parity in
        for i = first to last do
          if i <> lone then xor_accumulate acc recovered.(i)
        done;
        recovered.(lone) <- Bytes.sub_string acc 0 (data_length t lone))
    | _ :: _ :: _ ->
      if !failure = None then
        failure := Some (Printf.sprintf "group %d lost %d packets" g (List.length !missing))
  done;
  match !failure with
  | Some msg -> Error msg
  | None -> Ok (String.concat "" (Array.to_list recovered))

type recovery = {
  payload : string;
  byte_ok : bool array;
  failed_groups : int list;
  repaired_packets : int;
}

let recover_detail t ~present =
  if Array.length present <> Array.length t.packets then
    invalid_arg "Fec.recover_detail: packet array length mismatch";
  let groups = (t.data_packets + t.group_size - 1) / t.group_size in
  let recovered = Array.make t.data_packets None in
  let failed = ref [] in
  let repaired = ref 0 in
  for g = groups - 1 downto 0 do
    let first = g * t.group_size in
    let last = min (t.data_packets - 1) (first + t.group_size - 1) in
    let missing = ref [] in
    for i = first to last do
      match present.(i) with
      | Some packet -> recovered.(i) <- Some packet
      | None -> missing := i :: !missing
    done;
    match !missing with
    | [] -> ()
    | [ lone ] -> (
      match present.(t.data_packets + g) with
      | None -> failed := g :: !failed
      | Some parity ->
        let acc = Bytes.of_string parity in
        for i = first to last do
          if i <> lone then
            match recovered.(i) with
            | Some p -> xor_accumulate acc p
            | None -> ()
        done;
        incr repaired;
        recovered.(lone) <- Some (Bytes.sub_string acc 0 (data_length t lone)))
    | _ :: _ :: _ -> failed := g :: !failed
  done;
  (* Zero-fill unrecovered spans so the payload keeps its exact length
     and surviving records stay at their true offsets; [byte_ok] tells
     the decoder which spans to distrust. *)
  let byte_ok = Array.make t.payload_length true in
  let buf = Buffer.create t.payload_length in
  Array.iteri
    (fun i packet ->
      let len = data_length t i in
      match packet with
      | Some p -> Buffer.add_string buf p
      | None ->
        Buffer.add_string buf (String.make len '\000');
        let from = i * t.packet_size in
        Array.fill byte_ok from len false)
    recovered;
  {
    payload = Buffer.contents buf;
    byte_ok;
    failed_groups = !failed;
    repaired_packets = !repaired;
  }

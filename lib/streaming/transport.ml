type packetized = {
  info : Codec.Decoder.stream_info;
  payloads : string array;
  frame_types : Codec.Stream.frame_type array;
}

let packetize (encoded : Codec.Encoder.encoded) =
  Result.map
    (fun info ->
      let data = encoded.Codec.Encoder.data in
      let offset = ref info.Codec.Decoder.header_bytes in
      let payloads =
        Array.map
          (fun bits ->
            let bytes = (bits + 7) / 8 in
            let payload = String.sub data !offset bytes in
            offset := !offset + bytes;
            payload)
          encoded.Codec.Encoder.frame_sizes_bits
      in
      { info; payloads; frame_types = encoded.Codec.Encoder.frame_types })
    (Codec.Decoder.parse_header encoded.Codec.Encoder.data)

type received = {
  psnr : float array;
  concealed : int;
  drifted : int;
}

(* One pass over the frames. The received chain decodes every frame
   that arrived; a lost frame shows the received chain's last picture.
   While no loss has reached the prediction chain, each frame is the
   clean decode bit for bit (same payload, same reference planes, same
   decoder), so it scores [infinity] without a picture. A loss forks a
   clean chain from the last shared reference planes; it decodes every
   payload, the lost ones too, and each frame shown in the meantime
   scores against it. The next received I-frame ignores its reference,
   so both chains decode the same planes there and merge. Plane sets
   that neither chain holds any more are reused, so a session needs at
   most three, and one scratch serves every decode. *)
let receive t ~lost =
  Obs.Trace.with_span "transport.decode"
    ~attrs:[ ("frames", string_of_int (Array.length t.payloads)) ]
  @@ fun () ->
  let n = Array.length t.payloads in
  if Array.length lost <> n then
    invalid_arg "Transport.receive: loss mask length mismatch";
  let info = t.info in
  let width = info.Codec.Decoder.info_width
  and height = info.Codec.Decoder.info_height in
  let scratch = Codec.Block_codec.scratch () in
  let psnr = Array.make n infinity in
  (* [shown]: the received chain's reference, the picture on screen.
     [clean]: the clean chain's, while a loss has forked it. *)
  let shown = ref None and clean = ref None and free = ref [] in
  let held planes = function Some p -> p == planes | None -> false in
  let release chain other =
    match !chain with
    | Some planes when not (held planes !other) -> free := planes :: !free
    | _ -> ()
  in
  let decode chain ~other i =
    let into =
      match !free with
      | planes :: rest ->
        free := rest;
        planes
      | [] -> Codec.Decoder.reference_planes info
    in
    match
      Codec.Decoder.decode_frame_into ~scratch ~into ~info ~reference:!chain
        t.payloads.(i)
    with
    | Error msg -> failwith msg
    | Ok () ->
      release chain other;
      chain := Some into;
      into
  in
  let score i a b =
    psnr.(i) <-
      Image.Metrics.psnr_of_squared_error ~samples:(3 * width * height)
        (Codec.Plane.squared_error_cropped a b ~width ~height)
  in
  let concealed = ref 0 and drifted = ref 0 in
  let result = ref (Ok ()) in
  (try
     for i = 0 to n - 1 do
       if lost.(i) then begin
         match !shown with
         | None -> failwith "first frame lost: nothing to conceal with"
         | Some on_screen ->
           incr concealed;
           if Option.is_none !clean then clean := !shown;
           score i (decode clean ~other:shown i) on_screen
       end
       else begin
         let picture = decode shown ~other:clean i in
         match (!clean, t.frame_types.(i)) with
         | None, _ -> ()
         | Some _, Codec.Stream.I_frame ->
           release clean shown;
           clean := None
         | Some _, Codec.Stream.P_frame ->
           incr drifted;
           score i (decode clean ~other:shown i) picture
       end
     done
   with Failure msg -> result := Error msg);
  Result.map
    (fun () -> { psnr; concealed = !concealed; drifted = !drifted })
    !result

let mean_psnr received =
  let n = Array.length received.psnr in
  if n = 0 then invalid_arg "Transport.mean_psnr: no frames";
  let total = ref 0. in
  Array.iter (fun p -> total := !total +. Float.min 99. p) received.psnr;
  !total /. float_of_int n

type nack_stats = {
  nack_rounds : int;
  packets_retransmitted : int;
  packets_repaired : int;
  nack_time_s : float;
  budget_exhausted : bool;
}

let no_nack =
  {
    nack_rounds = 0;
    packets_retransmitted = 0;
    packets_repaired = 0;
    nack_time_s = 0.;
    budget_exhausted = false;
  }

(* The NACK loop is a Resilience.Retry schedule: each attempt NACKs the
   packets still missing, waits out the backoff, and receives the burst
   of re-sent packets through the same fault model on a fresh
   deterministic sub-stream. The default policy reproduces the
   historical hand-rolled loop bit for bit (asserted in the tests); a
   resilience profile swaps in its own policy, and a circuit breaker
   can gate rounds — waiting out its cooldown on the simulated clock
   when the budget still allows. *)
let nack_rtt_s = 0.004

let nack_retransmit ?policy ?breaker ~fault ~link ~budget_s ~seed ~packets
    present =
  if Array.length present <> Array.length packets then
    invalid_arg "Transport.nack_retransmit: packet array length mismatch";
  let policy =
    match policy with
    | Some p -> p
    | None -> { Resilience.Retry.default with Resilience.Retry.budget_s }
  in
  let present = Array.copy present in
  let retransmitted = ref 0 in
  let repaired = ref 0 in
  let missing () =
    let acc = ref [] in
    Array.iteri (fun i p -> if p = None then acc := i :: !acc) present;
    List.rev !acc
  in
  let admit _a ~now_s () =
    match breaker with
    | None -> Resilience.Retry.Admit
    | Some b ->
      if Resilience.Breaker.allow b ~now_s then Resilience.Retry.Admit
      else (
        match Resilience.Breaker.cooldown_remaining b ~now_s with
        | Some w when w > 0. -> Resilience.Retry.Wait w
        | _ -> Resilience.Retry.Stop)
  in
  let cost (a : Resilience.Retry.attempt) () =
    let transfer =
      List.fold_left
        (fun acc i ->
          acc
          +. Netsim.transfer_time_s link (String.length packets.(i))
          +. Fault.delay_s fault ~seed:a.Resilience.Retry.seed ~index:i)
        0. (missing ())
    in
    nack_rtt_s +. a.Resilience.Retry.backoff_s +. transfer
  in
  let step (a : Resilience.Retry.attempt) ~now_s () =
    let gaps = missing () in
    let resent = Array.of_list (List.map (fun i -> packets.(i)) gaps) in
    retransmitted := !retransmitted + Array.length resent;
    let delivered =
      Fault.apply ~t_s:now_s fault ~seed:a.Resilience.Retry.seed resent
    in
    let repaired_before = !repaired in
    List.iteri
      (fun k i ->
        match delivered.(k) with
        | Some p ->
          present.(i) <- Some p;
          incr repaired;
          Option.iter
            (fun b -> Resilience.Breaker.record b ~now_s ~ok:true)
            breaker
        | None ->
          Option.iter
            (fun b -> Resilience.Breaker.record b ~now_s ~ok:false)
            breaker)
      gaps;
    Obs.Journal.record ~t_s:now_s
      (Obs.Journal.Nack_round
         {
           round = a.Resilience.Retry.round + 1;
           missing = List.length gaps;
           repaired = !repaired - repaired_before;
         })
  in
  let (), stats =
    Resilience.Retry.run ~admit policy ~seed ~init:()
      ~pending:(fun () -> missing () <> [])
      ~cost
      ~step:(fun a ~now_s () -> step a ~now_s ())
  in
  ( present,
    {
      nack_rounds = stats.Resilience.Retry.attempts;
      packets_retransmitted = !retransmitted;
      packets_repaired = !repaired;
      nack_time_s = stats.Resilience.Retry.time_s;
      budget_exhausted = stats.Resilience.Retry.budget_exhausted;
    } )

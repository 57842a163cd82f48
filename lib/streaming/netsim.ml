type t = {
  bandwidth_bps : float;
  packet_payload_bytes : int;
  per_packet_overhead_bytes : int;
}

let make ~bandwidth_bps ~packet_payload_bytes ~per_packet_overhead_bytes =
  if bandwidth_bps <= 0. then invalid_arg "Netsim.make: bandwidth must be positive";
  if packet_payload_bytes <= 0 then invalid_arg "Netsim.make: payload must be positive";
  if per_packet_overhead_bytes < 0 then invalid_arg "Netsim.make: negative overhead";
  { bandwidth_bps; packet_payload_bytes; per_packet_overhead_bytes }

let wlan_80211b =
  make ~bandwidth_bps:5_000_000. ~packet_payload_bytes:1400
    ~per_packet_overhead_bytes:54

let packet_count link bytes =
  if bytes < 0 then invalid_arg "Netsim.packet_count: negative size";
  if bytes = 0 then 0
  else (bytes + link.packet_payload_bytes - 1) / link.packet_payload_bytes

let wire_bytes link bytes =
  bytes + (packet_count link bytes * link.per_packet_overhead_bytes)

let transfer_time_s link bytes =
  float_of_int (wire_bytes link bytes) *. 8. /. link.bandwidth_bps

let annotation_overhead_ratio link ~video_bytes ~annotation_bytes =
  if video_bytes <= 0 then invalid_arg "Netsim: empty video";
  let video_wire = wire_bytes link video_bytes in
  let combined_wire = wire_bytes link (video_bytes + annotation_bytes) in
  float_of_int (combined_wire - video_wire) /. float_of_int video_wire

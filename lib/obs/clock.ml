(* CLOCK_MONOTONIC through bechamel's binding: it never steps
   backwards, so no state is needed to keep readings ordered, and a
   reading is one allocation-free call. *)
let now_ns () =
  (* lint: allow L001 this shim is the one sanctioned ambient-clock reader *)
  Monotonic_clock.now ()

let elapsed_ns ~since =
  let d = Int64.sub (now_ns ()) since in
  if Int64.compare d 0L < 0 then 0L else d

let ns_to_s ns = Int64.to_float ns /. 1e9

let ns_to_us ns = Int64.to_float ns /. 1e3

(* Benchmark entry point:

     perfbench --workload vod-cold|fleet-flash|chaos-warm
               [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]

   With --trace 0 it runs the workload's timed section and prints the
   end-to-end metrics; with --trace 1 it replays the workload's
   sessions layer by layer and prints the per-layer metrics. Either
   way the last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Run it from the
   root of a checkout (chaos-warm reads the profiles in examples/). *)

let default_seed = 1

let workloads = [ "vod-cold"; "fleet-flash"; "chaos-warm" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload vod-cold|fleet-flash|chaos-warm [--seed N] \
     [--seconds S] [--trace 0|1] [--trace-out FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and trace = ref 0 and trace_out = ref "" in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_arg n;
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some f when f > 0. -> seconds := f
      | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      trace := int_arg t;
      parse rest
    | "--trace-out" :: f :: rest ->
      trace_out := f;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if (not (List.mem !workload workloads)) || (!trace <> 0 && !trace <> 1) then
    usage ();
  if !seed < 0 then usage ();
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" !workload !seed
    !seconds !trace;
  let seed = !seed and seconds = !seconds in
  (if !trace = 0 then
     match !workload with
     | "vod-cold" -> Workloads.Vod_cold.run ~seed ~seconds
     | "fleet-flash" -> Workloads.Fleet_flash.run ~seed ~seconds
     | _ -> Workloads.Chaos_warm.run ~seed ~seconds
   else
     let trace_out =
       if !trace_out <> "" then !trace_out
       else Printf.sprintf "perfbench.out/trace-%s-%d.json" !workload seed
     in
     Layers.run ~workload:!workload ~seed ~seconds ~trace_out);
  Bench_util.print_result ()

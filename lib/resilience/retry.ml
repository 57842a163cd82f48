(* Budgeted deterministic retry: the generalisation of the transport's
   NACK loop. Everything is costed on the simulated clock before it is
   spent, so a schedule never blows its deadline budget, and every
   quantity (backoff, per-round seed, jitter) is a pure function of the
   policy and the caller's seed — two runs of the same schedule are
   byte-identical. *)

type policy = {
  max_attempts : int;
  base_backoff_s : float;
  multiplier : float;
  jitter : float;
  budget_s : float;
}

(* The transport's historical constants: 16 rounds, 2 ms base backoff
   doubling each round, no jitter, a 40 ms deadline budget. *)
let default =
  {
    max_attempts = 16;
    base_backoff_s = 0.002;
    multiplier = 2.;
    jitter = 0.;
    budget_s = 0.04;
  }

type attempt = { round : int; seed : int; backoff_s : float }

type admission = Admit | Wait of float | Stop

type stats = {
  attempts : int;
  time_s : float;
  budget_exhausted : bool;
  denied : bool;
}

(* Distinct deterministic sub-stream per round, same derivation the
   NACK loop has always used (7919 is the 1000th prime). *)
let round_seed ~seed ~round = seed + ((round + 1) * 7919)

(* Jitter rides its own salt so enabling it never perturbs the fault
   injector's streams, which are keyed on the bare round seed. *)
let jitter_salt = 0x5bd1e995

let backoff_s policy ~seed ~round =
  let base =
    policy.base_backoff_s *. Float.pow policy.multiplier (float_of_int round)
  in
  if policy.jitter <= 0. || base <= 0. then base
  else
    let rng =
      Image.Prng.create ~seed:(round_seed ~seed ~round lxor jitter_salt)
    in
    base +. Image.Prng.float rng (policy.jitter *. base)

let run ?(admit = fun _ ~now_s:_ _ -> Admit) policy ~seed ~init ~pending ~cost
    ~step =
  let spent = ref 0. in
  let attempts = ref 0 in
  let exhausted = ref false in
  let denied = ref false in
  let state = ref init in
  let finished = ref false in
  while not !finished do
    if not (pending !state) then finished := true
    else if !attempts >= policy.max_attempts then finished := true
    else begin
      let a =
        {
          round = !attempts;
          seed = round_seed ~seed ~round:!attempts;
          backoff_s = backoff_s policy ~seed ~round:!attempts;
        }
      in
      match admit a ~now_s:!spent !state with
      | Stop ->
        denied := true;
        finished := true
      | Wait w ->
        (* Waiting out a cooldown is simulated time like any other
           cost: it must fit the budget or the schedule is over. *)
        if w <= 0. then ()
        else if !spent +. w > policy.budget_s then begin
          exhausted := true;
          finished := true
        end
        else spent := !spent +. w
      | Admit ->
        let c = cost a !state in
        if !spent +. c > policy.budget_s then begin
          exhausted := true;
          finished := true
        end
        else begin
          spent := !spent +. c;
          incr attempts;
          state := step a ~now_s:!spent !state
        end
    end
  done;
  ( !state,
    {
      attempts = !attempts;
      time_s = !spent;
      budget_exhausted = !exhausted;
      denied = !denied;
    } )

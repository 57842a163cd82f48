(* Bulkhead: a concurrency compartment with an explicit queue and an
   explicit shed decision. The server's prepared-stream cache fill
   runs inside one so a burst of expensive annotation builds cannot
   starve everything else — excess work queues up to a limit and is
   shed (to the degradation ladder) beyond it, and every decision is
   counted and journaled rather than implied by lock contention. *)

type config = { capacity : int; queue_limit : int }

let default_config = { capacity = 2; queue_limit = 2 }

let clamp (c : config) =
  { capacity = max 1 c.capacity; queue_limit = max 0 c.queue_limit }

type decision = Admitted | Queued | Shed

let decision_label = function
  | Admitted -> "admitted"
  | Queued -> "queued"
  | Shed -> "shed"

type t = {
  name : string;
  config : config;
  lock : Mutex.t;
  can_enter : Condition.t;
  mutable in_flight : int;  (* guarded_by: lock *)
  mutable waiting : int;  (* guarded_by: lock *)
  mutable admitted_total : int;  (* guarded_by: lock *)
  mutable queued_total : int;  (* guarded_by: lock *)
  mutable shed_total : int;  (* guarded_by: lock *)
}

let create ?(config = default_config) ~name () =
  {
    name;
    config = clamp config;
    lock = Mutex.create ();
    can_enter = Condition.create ();
    in_flight = 0;
    waiting = 0;
    admitted_total = 0;
    queued_total = 0;
    shed_total = 0;
  }

let name t = t.name

let config t = t.config

(* Bulkhead decisions are journaled at t=0 in the session-start phase:
   admission happens before any simulated clock is running, and a
   fixed phase/timestamp keeps repeated server fills from perturbing
   the per-phase monotonicity audit (V406) of whatever stage runs
   next. *)
(* The counter values travel as plain arguments: the caller snapshots
   them inside its locked region, and this function touches no
   guarded state itself. *)
let journal t decision ~in_flight ~queued =
  Obs.Journal.record
    (Obs.Journal.Bulkhead_decision
       { name = t.name; decision = decision_label decision; in_flight; queued })

type outcome = { decision : decision; queued_behind : int }

(* Decide under the lock; block only for Queued. Sequential callers —
   every deterministic test and chaos path — see a pure function of
   the call sequence: below capacity admit, below queue_limit queue,
   otherwise shed. Under a domain pool the counts depend on scheduling
   and only the *totals* are meaningful; the journal stays
   deterministic because sequential paths are the only journaled
   ones that assert byte-equality. *)
let enter t =
  Mutex.lock t.lock;
  let outcome =
    if t.in_flight < t.config.capacity then begin
      t.in_flight <- t.in_flight + 1;
      t.admitted_total <- t.admitted_total + 1;
      (* lint: allow C004 journaling the decision inside the admission
         region is the design: the journal mutex is a leaf lock, never
         held while taking this one *)
      journal t Admitted ~in_flight:t.in_flight ~queued:t.waiting;
      { decision = Admitted; queued_behind = 0 }
    end
    else if t.waiting < t.config.queue_limit then begin
      t.waiting <- t.waiting + 1;
      t.queued_total <- t.queued_total + 1;
      let behind = t.waiting in
      journal t Queued ~in_flight:t.in_flight ~queued:t.waiting;
      while t.in_flight >= t.config.capacity do
        Condition.wait t.can_enter t.lock
      done;
      t.waiting <- t.waiting - 1;
      t.in_flight <- t.in_flight + 1;
      { decision = Queued; queued_behind = behind }
    end
    else begin
      t.shed_total <- t.shed_total + 1;
      journal t Shed ~in_flight:t.in_flight ~queued:t.waiting;
      { decision = Shed; queued_behind = t.waiting }
    end
  in
  Mutex.unlock t.lock;
  outcome

let release t =
  Mutex.lock t.lock;
  t.in_flight <- max 0 (t.in_flight - 1);
  Condition.signal t.can_enter;
  Mutex.unlock t.lock

let run t ~shed f =
  let outcome = enter t in
  match outcome.decision with
  | Shed -> shed ()
  | Admitted | Queued -> Fun.protect ~finally:(fun () -> release t) f

let stats t =
  Mutex.lock t.lock;
  let s = (t.admitted_total, t.queued_total, t.shed_total) in
  Mutex.unlock t.lock;
  s

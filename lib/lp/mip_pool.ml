module Trace = Monpos_obs.Trace
module Metrics = Monpos_obs.Metrics
module Clock = Monpos_obs.Clock
module Flightrec = Monpos_obs.Flightrec
module Error = Monpos_resilience.Error
module Chaos = Monpos_resilience.Chaos
module Prng = Monpos_util.Prng
module Wsdeque = Monpos_util.Wsdeque

let m_worker_failures =
  lazy (Metrics.counter Metrics.default "mip.worker_failures")

(* per-worker series, labeled by worker slot (0 = the coordinating
   domain), not by runtime domain id: slot labels keep the series
   cardinality bounded by [jobs] where raw domain ids would grow
   without bound across solves. Registration happens on the main
   domain only (before spawn or after join); workers touch nothing
   but the returned handles. *)
let m_nodes_w w =
  Metrics.counter
    ~labels:[ ("domain", string_of_int w) ]
    Metrics.default "mip.nodes"

let m_idle_w w =
  Metrics.gauge
    ~labels:[ ("domain", string_of_int w) ]
    Metrics.default "mip.idle_seconds"

type 'a job = {
  item : 'a;
  (* how many worker slots have already died while holding this task;
     the supervisor requeues up to a small cap, past which the failure
     is evidently the task's own (a deterministic bug) and propagates *)
  mutable tries : int;
  (* drawn at deal time by the [domain.die] chaos site: the first
     worker slot to pick the task up dies on it *)
  doomed : bool;
}

(* chaos site [domain.die]: the injected fail-stop worker death. The
   exception deliberately is not [Error.Error] — the supervisor must
   treat it like any other unexpected worker crash. The lottery is
   drawn on the coordinator when a wave is dealt, once per task in
   wave order, and a doomed task waits in a queue that only worker
   slots drain; so the number of deaths depends on the chaos seed and
   the wave sequence alone, never on which slot happened to run
   what. *)
exception Worker_killed of int

(* The spawned side of the pool. Work arrives in waves: the
   coordinator publishes a generation bump with [p_remaining] set to
   the wave size, deals the tasks round-robin into the per-worker
   deques, and every slot then drains tasks — own deque first (LIFO),
   stealing from the top of random victims when empty. The barrier is
   [p_remaining] reaching zero; setting [p_remaining] before the
   pushes matters, because a straggler from the previous wave may
   steal a new task early and its decrement must land on an
   initialized counter. *)
type 'a workers = {
  p_jobs : int;
  p_deques : 'a job Wsdeque.t array;
  p_lock : Mutex.t;
  p_cond : Condition.t;
  mutable p_generation : int;
  mutable p_remaining : int;
  mutable p_quit : bool;
  mutable p_failure : exn option;
  (* fail-stop supervision state: a slot whose task raised is marked
     dead, its unfinished work moves to [p_retry] (guarded by
     [p_lock]), and the surviving slots drain it. Slot 0 (the
     coordinator) is never marked dead — a coordinator failure
     propagates. *)
  p_dead : bool array;
  p_retry : 'a job Queue.t;
  (* doomed tasks of the current wave, guarded by [p_lock]; at most
     one per live worker slot, so each finds a slot to kill *)
  p_doomed : 'a job Queue.t;
  p_steals : int array;
  p_idle : float array;
  p_nodes_w : Metrics.counter array;
  p_failures : Metrics.counter;
  p_process : 'a -> unit;
  p_sink : Trace.sink;
  mutable p_domains : unit Domain.t array;
}

type 'a t = {
  jobs : int;
  prngs : Prng.t array;
  inline : 'a -> unit;
  workers : 'a workers Lazy.t;
}

let take pool q =
  Mutex.protect pool.p_lock (fun () ->
      if Queue.is_empty q then None else Some (Queue.pop q))

let steal_task pool w prng =
  let start = Prng.int prng pool.p_jobs in
  let rec sweep i =
    if i = pool.p_jobs then None
    else
      let v = (start + i) mod pool.p_jobs in
      if v = w then sweep (i + 1)
      else
        match Wsdeque.steal pool.p_deques.(v) with
        | Some _ as t ->
          pool.p_steals.(w) <- pool.p_steals.(w) + 1;
          t
        | None -> sweep (i + 1)
  in
  sweep 0

(* doomed tasks first (worker slots only), then the own deque, the
   retry queue, and last a steal sweep over random victims *)
let find_task pool w prng =
  match if w > 0 then take pool pool.p_doomed else None with
  | Some _ as t -> t
  | None -> (
    match Wsdeque.pop pool.p_deques.(w) with
    | Some _ as t -> t
    | None -> (
      match take pool pool.p_retry with
      | Some _ as t -> t
      | None -> steal_task pool w prng))

let live_workers pool =
  let n = ref 0 in
  for w = 1 to pool.p_jobs - 1 do
    if not pool.p_dead.(w) then incr n
  done;
  !n

let record_failure pool e =
  Mutex.protect pool.p_lock (fun () ->
      match pool.p_failure with
      | None -> pool.p_failure <- Some e
      | Some _ -> ())

let task_done pool =
  Mutex.protect pool.p_lock (fun () ->
      pool.p_remaining <- pool.p_remaining - 1;
      if pool.p_remaining = 0 then Condition.broadcast pool.p_cond)

(* Fail-stop containment for a dying worker slot: the slot is marked
   dead, the failed task and everything still sitting in the slot's
   own deque move to the retry queue, and the survivors are woken to
   drain it. [p_remaining] is deliberately not decremented for the
   requeued tasks — the wave barrier completes only once a survivor
   has actually finished them, so the caller never sees a task left
   half done. *)
let supervise_failure pool w j e =
  j.tries <- j.tries + 1;
  Mutex.protect pool.p_lock (fun () ->
      pool.p_dead.(w) <- true;
      Queue.push j pool.p_retry;
      let rec drain_own () =
        match Wsdeque.pop pool.p_deques.(w) with
        | Some j' ->
          Queue.push j' pool.p_retry;
          drain_own ()
        | None -> ()
      in
      drain_own ();
      (* a slot lost to something other than the lottery can leave
         doomed tasks without a worker to run them: slot 0 takes them
         from the retry queue, where nobody dies *)
      if live_workers pool = 0 then Queue.transfer pool.p_doomed pool.p_retry;
      Condition.broadcast pool.p_cond);
  Metrics.incr pool.p_failures;
  if Trace.enabled pool.p_sink then
    Trace.worker_failure pool.p_sink ~slot:w ~reason:(Printexc.to_string e);
  Flightrec.trigger ~reason:"worker_failure"

let rec drain_wave pool w prng =
  if pool.p_dead.(w) then ()
  else
    match find_task pool w prng with
    | Some j -> (
      match
        (* a doomed task kills only on its first attempt: a worker
           picking up the requeued task must not die on it again, or a
           single unlucky task could fell every slot in turn *)
        if w > 0 && j.doomed && j.tries = 0 then raise (Worker_killed w)
        else pool.p_process j.item
      with
      | () ->
        Metrics.incr pool.p_nodes_w.(w);
        task_done pool;
        drain_wave pool w prng
      | exception e ->
        (* Typed solver errors ([Error.Error]) are findings about the
           model, not the worker — they propagate whole. So does any
           failure on slot 0 (losing the coordinator means losing the
           merge), and a task that has already killed several slots. *)
        let supervisable =
          w > 0 && j.tries < 3
          && (match e with Error.Error _ -> false | _ -> true)
        in
        if supervisable then supervise_failure pool w j e
        else begin
          record_failure pool e;
          task_done pool;
          drain_wave pool w prng
        end)
    | None ->
      (* nothing stealable: either the wave is done or every remaining
         task is in flight on another slot — wait for the zero broadcast.
         Retry and doomed tasks are queued under [p_lock] and announced
         by a broadcast that may have gone out since [find_task] looked,
         so they are checked again here; slot 0 cannot run a doomed
         task, so a worker sleeping through one would hang the wave. *)
      let finished =
        Mutex.protect pool.p_lock (fun () ->
            if pool.p_remaining > 0 && not pool.p_quit then begin
              if
                Queue.is_empty pool.p_retry
                && (w = 0 || Queue.is_empty pool.p_doomed)
              then begin
                let t0 = Clock.now () in
                Condition.wait pool.p_cond pool.p_lock;
                pool.p_idle.(w) <- pool.p_idle.(w) +. (Clock.now () -. t0)
              end;
              false
            end
            else true)
      in
      if not finished then drain_wave pool w prng

let rec worker_loop pool w prng my_gen =
  let next =
    Mutex.protect pool.p_lock (fun () ->
        let t0 = Clock.now () in
        while (not pool.p_quit) && pool.p_generation = my_gen do
          Condition.wait pool.p_cond pool.p_lock
        done;
        pool.p_idle.(w) <- pool.p_idle.(w) +. (Clock.now () -. t0);
        if pool.p_quit then None else Some pool.p_generation)
  in
  match next with
  | None ->
    (* domain exit: push out any events this domain buffered, so a
       reader never sees a torn per-domain span pair *)
    Trace.flush pool.p_sink
  | Some gen ->
    drain_wave pool w prng;
    worker_loop pool w prng gen

let spawn ~jobs ~prngs ~process ~sink =
  let pool =
    {
      p_jobs = jobs;
      p_deques = Array.init jobs (fun _ -> Wsdeque.create ());
      p_lock = Mutex.create ();
      p_cond = Condition.create ();
      p_generation = 0;
      p_remaining = 0;
      p_quit = false;
      p_failure = None;
      p_dead = Array.make jobs false;
      p_retry = Queue.create ();
      p_doomed = Queue.create ();
      p_steals = Array.make jobs 0;
      p_idle = Array.make jobs 0.0;
      p_nodes_w = Array.init jobs m_nodes_w;
      (* forced here, not on a dying worker: two workers dying at once
         would race on the lazy and one would raise Lazy.Undefined *)
      p_failures = Lazy.force m_worker_failures;
      p_process = process;
      p_sink = sink;
      p_domains = [||];
    }
  in
  pool.p_domains <-
    Array.init (jobs - 1) (fun i ->
        let w = i + 1 in
        let prng = prngs.(w) in
        Domain.spawn (fun () -> worker_loop pool w prng 0));
  pool

let run_wave pool prng0 tasks =
  let n = List.length tasks in
  Mutex.protect pool.p_lock (fun () ->
      pool.p_remaining <- n;
      pool.p_generation <- pool.p_generation + 1;
      Condition.broadcast pool.p_cond);
  (* deal only to surviving slots: a dead slot's deque has no owner to
     pop it, and while thieves could still steal from it, leaving work
     there would make the common case (no thief looks) a stall *)
  let alive =
    Array.of_list
      (List.filter (fun w -> not pool.p_dead.(w)) (List.init pool.p_jobs Fun.id))
  in
  let victims = live_workers pool in
  let doomed = ref 0 in
  List.iteri
    (fun i item ->
      if
        !doomed < victims
        && Chaos.fire ~scoped:false ~site:"domain.die" ~p:0.02 ()
      then begin
        incr doomed;
        (* re-checked under the lock that marks slots dead: if an
           ordinary crash took the last worker during the deal, no
           slot could ever run a doomed task, so it goes to the retry
           queue undoomed, like [supervise_failure] moves the others *)
        Mutex.protect pool.p_lock (fun () ->
            if live_workers pool > 0 then
              Queue.push { item; tries = 0; doomed = true } pool.p_doomed
            else Queue.push { item; tries = 0; doomed = false } pool.p_retry)
      end
      else
        Wsdeque.push
          pool.p_deques.(alive.(i mod Array.length alive))
          { item; tries = 0; doomed = false })
    tasks;
  (* second broadcast: a worker that woke on the generation bump,
     found the deques still empty and went back to waiting needs a
     poke now that the tasks are actually visible *)
  Mutex.protect pool.p_lock (fun () -> Condition.broadcast pool.p_cond);
  drain_wave pool 0 prng0;
  Mutex.protect pool.p_lock (fun () ->
      let t0 = Clock.now () in
      while pool.p_remaining > 0 do
        Condition.wait pool.p_cond pool.p_lock
      done;
      pool.p_idle.(0) <- pool.p_idle.(0) +. (Clock.now () -. t0));
  match pool.p_failure with
  | Some e ->
    pool.p_failure <- None;
    raise e
  | None -> ()

let create ~jobs ~prngs ~process ~sink =
  let inline_nodes = lazy (m_nodes_w 0) in
  {
    jobs;
    prngs;
    inline =
      (fun x ->
        process x;
        if jobs > 1 then Metrics.incr (Lazy.force inline_nodes));
    workers = lazy (spawn ~jobs ~prngs ~process ~sink);
  }

(* singleton waves (the root above all) run inline on the coordinating
   domain: trivial solves never pay a spawn, and the root LP forces
   every kernel-internal lazy before a worker domain can race it *)
let run t = function
  | [] -> ()
  | [ x ] -> t.inline x
  | xs when t.jobs = 1 -> List.iter t.inline xs
  | xs -> run_wave (Lazy.force t.workers) t.prngs.(0) xs

let shutdown t =
  if Lazy.is_val t.workers then begin
    let pool = Lazy.force t.workers in
    Mutex.protect pool.p_lock (fun () ->
        pool.p_quit <- true;
        Condition.broadcast pool.p_cond);
    Array.iter Domain.join pool.p_domains;
    let stolen = Array.fold_left ( + ) 0 pool.p_steals in
    if stolen > 0 then
      Metrics.add (Metrics.counter Metrics.default "mip.steals") stolen;
    Array.iteri
      (fun w s ->
        if s > 0.0 then begin
          let g = m_idle_w w in
          Metrics.set g (Metrics.gauge_value g +. s)
        end)
      pool.p_idle
  end

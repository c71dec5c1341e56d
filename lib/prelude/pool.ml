(* A fixed worker pool over Domains with one shared claim cursor.

   Workers are parked on a condition variable between batches.  A batch
   hands every participating worker the same body: claim the next item
   index with one [Atomic.fetch_and_add] on the batch's cursor, run it,
   repeat until the cursor passes the end.  Items are coarse (whole
   ⟨instance, algorithm⟩ cells, sites, or campaigns), so one atomic per
   item costs nothing measurable and an idle worker never waits behind a
   slow item.  Which worker runs an item may vary with timing; what
   cannot vary is the result: every item writes its own pre-allocated
   slot ([Ok] or the captured exception) and the slots are merged by item
   index, so output equals the sequential run's. *)

type slot = Idle | Work of (unit -> unit)

let sp_worker = Mp_obs.Span.make "pool.worker"
let c_batches = Mp_obs.Counter.make "pool.batches"

(* Busy time depends on OS scheduling, so this is the one counter that is
   *not* reproducible run to run; the bench harness excludes it from the
   BENCH_core.json baselines it otherwise gates exactly. *)
let c_busy_ns = Mp_obs.Counter.make "pool.busy_ns"

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  slots : slot array;  (* one per spawned domain; length jobs - 1 *)
  mutable busy : int;  (* spawned-domain slots still running this batch *)
  mutable in_batch : bool;  (* a map is in flight (any jobs value) *)
  mutable closed : bool;
  mutable domains : unit Domain.t array;
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* One worker's whole participation in a batch, under the per-worker
   busy probes: a [pool.worker] span plus this domain's share of
   [pool.busy_ns].  A single branch and no allocation when the probes
   are off. *)
let participate f =
  if not !Mp_obs.enabled then f ()
  else begin
    let t0 = Mp_obs.now_ns () in
    Mp_obs.Span.enter sp_worker;
    Fun.protect f ~finally:(fun () ->
        Mp_obs.Span.exit sp_worker;
        Mp_obs.Counter.add c_busy_ns (max 0 (Mp_obs.now_ns () - t0)))
  end

let worker t w =
  let rec loop () =
    Mutex.lock t.mutex;
    while t.slots.(w) = Idle && not t.closed do
      Condition.wait t.work_ready t.mutex
    done;
    match t.slots.(w) with
    | Idle ->
        (* closed with nothing assigned *)
        Mutex.unlock t.mutex
    | Work f ->
        Mutex.unlock t.mutex;
        participate f;
        Mutex.lock t.mutex;
        t.slots.(w) <- Idle;
        t.busy <- t.busy - 1;
        if t.busy = 0 then Condition.broadcast t.work_done;
        Mutex.unlock t.mutex;
        loop ()
  in
  loop ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs < 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      slots = Array.make (jobs - 1) Idle;
      busy = 0;
      in_batch = false;
      closed = false;
      domains = [||];
    }
  in
  t.domains <- Array.init (jobs - 1) (fun w -> Domain.spawn (fun () -> worker t w));
  t

let jobs t = t.jobs

(* Claim items through the shared cursor until it passes the end.  A
   worker stops at its first captured exception; the cursor only moves
   forward, so the claimed indices are always a prefix of the batch, and
   an index left unclaimed (its slot still [None]) means every worker
   stopped on an [Error] at a smaller index — which the ordered merge
   reaches first. *)
let claim_loop results items f cursor n () =
  let rec claim () =
    let i = Atomic.fetch_and_add cursor 1 in
    if i < n then
      match f items.(i) with
      | v ->
          results.(i) <- Some (Ok v);
          claim ()
      | exception e -> results.(i) <- Some (Error e)
  in
  claim ()

let map_array t f items =
  let n = Array.length items in
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.map: pool is shut down"
  end;
  if t.in_batch then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.map: concurrent map on the same pool"
  end;
  if n = 0 then begin
    Mutex.unlock t.mutex;
    [||]
  end
  else begin
    t.in_batch <- true;
    Mp_obs.Counter.incr c_batches;
    let results = Array.make n None in
    let body = claim_loop results items f (Atomic.make 0) n in
    (* wake at most n - 1 spawned workers: with the calling domain that
       is one participant per item *)
    let assigned = min (t.jobs - 1) (n - 1) in
    for w = 0 to assigned - 1 do
      t.slots.(w) <- Work body
    done;
    t.busy <- assigned;
    if assigned > 0 then Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    (* the calling domain participates as the last worker *)
    participate body;
    Mutex.lock t.mutex;
    while t.busy > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.in_batch <- false;
    Mutex.unlock t.mutex;
    (* merge in item order: the smallest-index failure wins, as it would
       sequentially (a [None] can only follow an [Error] at a smaller
       index, see [claim_loop]) *)
    for i = 0 to n - 1 do
      match results.(i) with Some (Error e) -> raise e | _ -> ()
    done;
    Array.map (function Some (Ok v) -> v | _ -> assert false) results
  end

let map t f xs = Array.to_list (map_array t f (Array.of_list xs))

let shutdown t =
  Mutex.lock t.mutex;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  if not was_closed then Array.iter Domain.join t.domains

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run ?jobs f xs = with_pool ?jobs (fun t -> map t f xs)

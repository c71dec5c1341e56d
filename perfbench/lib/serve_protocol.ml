(* serve-protocol: one client in a closed loop speaks the reservation
   protocol to sites whose calendars hold tens of thousands of granted
   reservations.  Operations come in a fixed cycle of four on one site:

   - Probe a random request shape,
   - Reserve that shape at the start the probe answered (so it is granted),
   - Probe another random shape,
   - Cancel a reservation, drawn at random from those the client saw
     granted on that site (by the preload or by the run).

   Grants and cancels balance, so the calendars keep their size during a
   run.  No scheduler is involved: the engine's dispatch, the calendar and
   its index do all the work. *)

module Engine = Mp_service.Engine
module Request = Mp_service.Request
module Response = Mp_service.Response
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation
module Rng = Mp_prelude.Rng

let name = "serve-protocol"

type config = {
  sites : int;
  procs : int;
  preload : int;  (** reserve attempts per site before the run *)
  horizon : int;  (** starts are uniform in [\[0, horizon)] *)
  max_procs : int;  (** requests ask for 1..max_procs processors *)
}

let default = { sites = 4; procs = 64; preload = 40_000; horizon = 120 * 86_400; max_procs = 8 }

(* A small instance of the same workload, for the benchmark's own tests. *)
let tiny = { default with preload = 400; horizon = 4 * 86_400 }

(* The client's reservations on one site, for drawing cancel targets. *)
type held = { mutable rs : Reservation.t array; mutable n : int }

let hold h r =
  if h.n = Array.length h.rs then h.rs <- Array.append h.rs (Array.make (max 16 h.n) r);
  h.rs.(h.n) <- r;
  h.n <- h.n + 1

let take h rng =
  let k = Rng.int rng h.n in
  let r = h.rs.(k) in
  h.rs.(k) <- h.rs.(h.n - 1);
  h.n <- h.n - 1;
  r

type state = {
  cfg : config;
  eng : Engine.t;
  preload : Calendar.t array;  (** per site, after the preload *)
  preload_held : Reservation.t array array;  (** per site, the preload's grants *)
  rng : Rng.t;  (** the client's draws during the run start from this state *)
}

let shape cfg rng =
  let start = Rng.int rng cfg.horizon in
  let dur = 60 + Rng.int rng 3541 in
  let procs = 1 + Rng.int rng cfg.max_procs in
  (start, dur, procs)

let setup_with cfg ~seed =
  let rng = Rng.create (Hashtbl.hash (name, seed)) in
  let site_spec = { Engine.calendar = Calendar.create ~procs:cfg.procs; q = cfg.procs } in
  let eng = Engine.create ~sites:(Array.make cfg.sites site_spec) () in
  let held = Array.init cfg.sites (fun _ -> { rs = [||]; n = 0 }) in
  for site = 0 to cfg.sites - 1 do
    for _ = 1 to cfg.preload do
      let start, dur, procs = shape cfg rng in
      match Engine.handle eng ~site (Reserve { start; dur; procs }) with
      | Granted -> hold held.(site) (Reservation.make ~start ~finish:(start + dur) ~procs)
      | _ -> ()
    done
  done;
  {
    cfg;
    eng;
    preload = Array.init cfg.sites (fun site -> Engine.calendar eng ~site);
    preload_held = Array.map (fun h -> Array.sub h.rs 0 h.n) held;
    rng = Rng.split rng;
  }

let setup ~seed = setup_with default ~seed

(* Grants move to the front of the engine's held list and cancels take
   reservations out of it, so no operation sequence gives back the
   state it started from: only a fresh set-up repeats the operations. *)
let segments = 6
let window = 400
let period _ = None

(* The client: it draws each request and learns from each answer.  The
   check replays a fresh client against the recorded answers, which gives
   back the run's requests without recording them. *)
type client = { held : held array; draws : Rng.t; mutable pending : int * int * int }

let client st =
  {
    held = Array.map (fun rs -> { rs = Array.copy rs; n = Array.length rs }) st.preload_held;
    draws = Rng.copy st.rng;
    pending = (0, 1, 1);
  }

let site_of st i = i / 4 mod st.cfg.sites

let next st c i : Request.t =
  match i mod 4 with
  | 0 | 2 ->
      let start, dur, procs = shape st.cfg c.draws in
      Probe { start; dur; procs }
  | 1 ->
      let start, dur, procs = c.pending in
      Reserve { start; dur; procs }
  | _ ->
      let r = take c.held.(site_of st i) c.draws in
      Cancel { start = r.start; finish = r.finish; procs = r.procs }

let observe st c i (req : Request.t) (resp : Response.t) =
  match (req, resp) with
  | Probe { start; dur; procs }, Available s when i mod 4 = 0 ->
      c.pending <- (Option.value s ~default:start, dur, procs)
  | Reserve { start; dur; procs }, Granted ->
      hold c.held.(site_of st i) (Reservation.make ~start ~finish:(start + dur) ~procs)
  | _ -> ()

(* Each answer is recorded as one integer: its kind in the low 3 bits and
   its start time (or -1) above them.  A run's records then cost 8 bytes an
   operation, so the peak memory barely depends on how many operations a
   run completes. *)
let r_available = 0
and r_granted = 1
and r_rejected = 2
and r_cancelled = 3
and r_error = 4
and r_other = 5

let encode resp =
  let kind, v =
    match (resp : Response.t) with
    | Available v -> (r_available, v)
    | Granted -> (r_granted, None)
    | Rejected v -> (r_rejected, v)
    | Cancelled -> (r_cancelled, None)
    | Error _ -> (r_error, None)
    | _ -> (r_other, None)
  in
  ((Option.value v ~default:(-1) + 1) lsl 3) lor kind

let decode x : Response.t =
  let v = match (x lsr 3) - 1 with -1 -> None | s -> Some s in
  match x land 7 with
  | 0 -> Available v
  | 1 -> Granted
  | 2 -> Rejected v
  | 3 -> Cancelled
  | 4 -> Error "error"
  | _ -> Error "an answer of another kind"

type outputs = {
  resp : Vec.t;  (** one encoded answer per operation *)
  finals : Calendar.t array;  (** each site's calendar after the run *)
}

let run st (mode : Work.mode) stop =
  let c = client st and resp = Vec.create () in
  let req = ref (Request.Stats { last = 0 }) and last = ref Response.Granted in
  let prepare i = req := next st c i in
  let op i =
    Option.iter (fun t -> Trace.set_req t i) mode.trace;
    last :=
      Trace.span mode.trace "engine.handle" (fun () ->
          Engine.handle st.eng ~site:(site_of st i) !req)
  in
  let finish i =
    Vec.push resp (encode !last);
    observe st c i !req !last
  in
  let res = Loop.run ~stop ~boundary:(fun i -> i mod 4 = 0) ~prepare ~finish op in
  (res, { resp; finals = Array.init st.cfg.sites (fun site -> Engine.calendar st.eng ~site) })

let errors out =
  let n = ref 0 in
  for i = 0 to Vec.length out.resp - 1 do
    if Vec.get out.resp i land 7 = r_error then incr n
  done;
  !n

let until = 1 lsl 40

(* Replay the run on persistent calendars forked from the preload: every
   answer must be what the calendar just before the request implies, and
   each site must end with exactly the live grants reserved. *)
let check st out =
  let violations = ref [] in
  let fail i msg = violations := Printf.sprintf "operation %d: %s" i msg :: !violations in
  let model = Array.copy st.preload in
  let live = Hashtbl.create 1024 in
  let add s r =
    Hashtbl.replace live (s, r) (1 + Option.value (Hashtbl.find_opt live (s, r)) ~default:0)
  in
  Array.iteri (fun s rs -> Array.iter (add s) rs) st.preload_held;
  let c = client st in
  for i = 0 to Vec.length out.resp - 1 do
    let s = site_of st i and req = next st c i and resp = decode (Vec.get out.resp i) in
    let cal = model.(s) in
    (match (req, resp) with
    | Probe { start; dur; procs }, Available v ->
        if v <> Calendar.earliest_fit cal ~after:start ~procs ~dur then
          fail i "probe answer differs from the calendar"
    | Reserve { start; dur; procs }, Granted ->
        let r = Reservation.make ~start ~finish:(start + dur) ~procs in
        if Calendar.can_reserve cal r then begin
          model.(s) <- Calendar.reserve cal r;
          add s r
        end
        else fail i "granted reservation does not fit the calendar"
    | Reserve { start; dur; procs }, Rejected v ->
        let r = Reservation.make ~start ~finish:(start + dur) ~procs in
        if Calendar.can_reserve cal r || v <> Calendar.earliest_fit cal ~after:start ~procs ~dur
        then fail i "rejected reservation fits the calendar"
    | Cancel { start; finish; procs }, Cancelled -> (
        let r = Reservation.make ~start ~finish ~procs in
        match Hashtbl.find_opt live (s, r) with
        | Some n -> (
            if n = 1 then Hashtbl.remove live (s, r) else Hashtbl.replace live (s, r) (n - 1);
            match Calendar.release cal r with
            | cal -> model.(s) <- cal
            | exception Invalid_argument _ ->
                fail i "cancelled a reservation the calendar does not hold")
        | None -> fail i "cancelled a reservation that was not granted")
    | _, resp -> fail i ("unexpected answer " ^ Response.kind resp));
    observe st c i req resp
  done;
  let area = Array.make st.cfg.sites 0 in
  Hashtbl.iter (fun (s, r) n -> area.(s) <- area.(s) + (n * Loop.area r)) live;
  Array.iteri
    (fun s cal ->
      let busy = Loop.busy_area cal ~until in
      if busy <> area.(s) then
        fail (Vec.length out.resp - 1)
          (Printf.sprintf "site %d busy area %d <> live grants %d" s busy area.(s)))
    out.finals;
  List.rev !violations

(* The answers determine the requests (given the seed), so hashing the
   answers covers both. *)
let digest ?upto out =
  let upto = Option.value upto ~default:(Vec.length out.resp) in
  let d = Loop.Digest_acc.create () in
  for i = 0 to upto - 1 do
    Loop.Digest_acc.add_string d (string_of_int (Vec.get out.resp i))
  done;
  Loop.Digest_acc.hex d

(* The run's Probe queries, asked again directly of the final calendars. *)
let layers st out =
  let c = client st and probes = ref [] in
  for i = 0 to Vec.length out.resp - 1 do
    let req = next st c i in
    (match req with
    | Probe { start; dur; procs } -> probes := (site_of st i, start, dur, procs) :: !probes
    | _ -> ());
    observe st c i req (decode (Vec.get out.resp i))
  done;
  let t0 = Clock.now_ns () in
  List.iter
    (fun (s, after, dur, procs) -> ignore (Calendar.earliest_fit out.finals.(s) ~after ~procs ~dur))
    !probes;
  let fit_ns = Clock.now_ns () - t0 in
  let bps = Array.fold_left (fun a c -> a + Calendar.breakpoints c) 0 out.finals in
  [
    ("calendar.fit_us", float_of_int fit_ns /. float_of_int (max 1 (List.length !probes)) /. 1e3);
    ("calendar.breakpoints", float_of_int bps /. float_of_int st.cfg.sites);
  ]

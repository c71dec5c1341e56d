(* serve-deadline: one client in a closed loop submits small DAGs asking
   for the tightest deadline with DL_RCBD_CPAR-λ, through [Engine.handle],
   to sites whose calendars are preloaded with granted reservations.
   Every scheduled DAG is committed.

   The set-up preloads [sets] independent sets of site calendars and draws
   one DAG per request of a round of [sets * epoch] requests.  Every
   [epoch] requests the loop restarts the service on the next set, so the
   calendars a request meets do not fill up with the run's own DAGs, and
   one round averages over many calendars rather than resting on four.
   After a round the loop starts again on the first set: request
   [i + sets * epoch] repeats request [i] on the same calendars. *)

module Engine = Mp_service.Engine
module Request = Mp_service.Request
module Response = Mp_service.Response
module Calendar = Mp_platform.Calendar
module Schedule = Mp_cpa.Schedule
module Rng = Mp_prelude.Rng

let name = "serve-deadline"

type config = {
  sites : int;
  procs : int;  (** processors per site *)
  q : int;  (** processor budget handed to the scheduler *)
  sets : int;  (** independent preloaded calendar sets *)
  preload : int;  (** reserve attempts per site and set before the run *)
  horizon : int;  (** preload starts are uniform in [\[0, horizon)] *)
  max_procs : int;  (** preload reservations ask for 1..max_procs processors *)
  epoch : int;  (** requests between restarts from the preloaded calendars *)
  algo : string;
}

let default =
  {
    sites = 4;
    procs = 64;
    q = 48;
    sets = 13;
    preload = 1900;
    horizon = 7 * 86_400;
    max_procs = 8;
    epoch = 8;
    algo = "DL_RCBD_CPAR-l";
  }

(* A small instance of the same workload, for the benchmark's own tests. *)
let tiny = { default with sets = 2; preload = 300; horizon = 2 * 86_400; epoch = 4 }

type state = {
  cfg : config;
  preload : Calendar.t array array;  (** per set and site, after the preload *)
  grant_area : int array array;  (** per set and site, processor-seconds granted by the preload *)
  dags : Mp_dag.Dag.t array;
}

type outputs = {
  resp : Response.t array;
  busy : int array array;  (** per epoch, each site's busy area at its end *)
}

let preload_set cfg rng =
  let site_spec = { Engine.calendar = Calendar.create ~procs:cfg.procs; q = cfg.q } in
  let eng = Engine.create ~sites:(Array.make cfg.sites site_spec) () in
  let grant_area = Array.make cfg.sites 0 in
  for site = 0 to cfg.sites - 1 do
    for _ = 1 to cfg.preload do
      let start = Rng.int rng cfg.horizon in
      let dur = 60 + Rng.int rng 3541 in
      let procs = 1 + Rng.int rng cfg.max_procs in
      match Engine.handle eng ~site (Reserve { start; dur; procs }) with
      | Granted -> grant_area.(site) <- grant_area.(site) + (procs * dur)
      | _ -> ()
    done
  done;
  (Array.init cfg.sites (fun site -> Engine.calendar eng ~site), grant_area)

let setup_with cfg ~seed =
  let rng = Rng.create (Hashtbl.hash (name, seed)) in
  let sets = Array.init cfg.sets (fun _ -> preload_set cfg rng) in
  let dags =
    (* sizes cycle through 6..16 tasks, so every seed's round has the same
       size mix and only the DAGs' structure is drawn *)
    Array.init (cfg.sets * cfg.epoch) (fun k ->
        let n = 6 + (k mod 11) in
        Mp_dag.Dag_gen.generate rng { Mp_dag.Dag_gen.default with n })
  in
  { cfg; preload = Array.map fst sets; grant_area = Array.map snd sets; dags }

let setup ~seed = setup_with default ~seed
let segments = 5
let window = 8
let period st = Some (Array.length st.dags)
let site st i = i mod st.cfg.sites
let dag st i = st.dags.(i mod Array.length st.dags)
let set st e = e mod st.cfg.sets

(* What [Mp_core.Serve.submit] does for a RESSCHEDDL algorithm asked for
   the tightest deadline, made of the same public calls, with a span
   around each. *)
let reroute tr ~algo ~(deadline : Request.deadline_spec) ~q cal dag =
  match (Mp_core.Algo.deadline_find algo, deadline) with
  | Some a, Tightest ->
      Trace.span tr "serve.submit" (fun () ->
          let env = Mp_core.Env.make ~calendar:cal ~q:(float_of_int q) in
          let prepared = Trace.span tr "cpa.prepare" (fun () -> a.prepare env dag) in
          match
            Trace.span tr "deadline.tightest" (fun () ->
                Mp_core.Deadline.tightest (Trace.probe tr prepared) env dag)
          with
          | Some (k, schedule) -> Response.Scheduled { schedule; deadline = Some k }
          | None -> Response.Infeasible { algo; deadline = None })
  | _ -> Response.Error "reroute answers only tightest-deadline submits"

let handlers (mode : Work.mode) =
  let serve = Mp_core.Serve.handlers () in
  if mode.reroute then { serve with submit = reroute mode.trace }
  else
    match mode.trace with
    | None -> serve
    | Some _ ->
        {
          serve with
          submit =
            (fun ~algo ~deadline ~q cal dag ->
              Trace.span mode.trace "serve.submit" (fun () ->
                  serve.submit ~algo ~deadline ~q cal dag));
        }

(* Far beyond any slot: busy areas are summed over [0, until). *)
let until = 1 lsl 40

let run st (mode : Work.mode) stop =
  let cfg = st.cfg in
  let handlers = handlers mode in
  let engine e =
    Engine.create ~handlers
      ~sites:(Array.map (fun calendar -> { Engine.calendar; q = cfg.q }) st.preload.(set st e))
      ()
  in
  let eng = ref (engine 0) in
  (* the busy area is all the check needs of an epoch's final calendars;
     keeping the calendars would make the memory a run holds grow with the
     number of requests it completes *)
  let busy = ref [] and resp = ref [] in
  let record () =
    let area site = Loop.busy_area (Engine.calendar !eng ~site) ~until in
    let areas = Array.init cfg.sites area in
    busy := areas :: !busy
  in
  let prepare i =
    if i > 0 && i mod cfg.epoch = 0 then begin
      record ();
      eng := engine (i / cfg.epoch)
    end
  in
  let op i =
    Option.iter (fun t -> Trace.set_req t i) mode.trace;
    let req = Request.Submit_dag { dag = dag st i; algo = cfg.algo; deadline = Tightest } in
    let r =
      Trace.span mode.trace "engine.handle" (fun () -> Engine.handle !eng ~site:(site st i) req)
    in
    resp := r :: !resp
  in
  let res = Loop.run ~stop ~boundary:(fun i -> i mod Array.length st.dags = 0) ~prepare op in
  record ();
  (res, { resp = Array.of_list (List.rev !resp); busy = Array.of_list (List.rev !busy) })

let errors out =
  Array.fold_left (fun n r -> match r with Response.Error _ -> n + 1 | _ -> n) 0 out.resp

let check st out =
  let cfg = st.cfg in
  let violations = ref [] in
  let fail i msg = violations := Printf.sprintf "request %d: %s" i msg :: !violations in
  let n = Array.length out.resp in
  Array.iteri
    (fun e busy ->
      (* replay the epoch on persistent calendars: each schedule must be
         valid against its site's calendar just before the request *)
      let model = Array.copy st.preload.(set st e) and area = Array.copy st.grant_area.(set st e) in
      let last = min n ((e + 1) * cfg.epoch) in
      for i = e * cfg.epoch to last - 1 do
        let s = site st i in
        match out.resp.(i) with
        | Scheduled { schedule; deadline = Some k } -> (
            match Schedule.validate (dag st i) ~base:model.(s) ~deadline:k schedule with
            | Ok () ->
                let rs = Schedule.reservations schedule in
                model.(s) <- List.fold_left Calendar.reserve model.(s) rs;
                area.(s) <- List.fold_left (fun a r -> a + Loop.area r) area.(s) rs
            | Error msg -> fail i msg)
        | r -> fail i ("unexpected response " ^ Response.to_string r)
      done;
      Array.iteri
        (fun s busy ->
          if busy <> area.(s) then
            fail (last - 1)
              (Printf.sprintf "site %d busy area %d <> granted + committed %d" s busy area.(s)))
        busy)
    out.busy;
  List.rev !violations

let digest ?upto out =
  let upto = Option.value upto ~default:(Array.length out.resp) in
  let d = Loop.Digest_acc.create () in
  Array.iteri
    (fun i r -> if i < upto then Loop.Digest_acc.add_string d (Response.to_string r))
    out.resp;
  Loop.Digest_acc.hex d

let layers st _ =
  let bps =
    Array.fold_left (Array.fold_left (fun a c -> a + Calendar.breakpoints c)) 0 st.preload
  in
  [ ("calendar.breakpoints", float_of_int bps /. float_of_int (st.cfg.sets * st.cfg.sites)) ]

(* paper-campaign: a batch of ⟨instance, algorithm⟩ cells run in order,
   as the paper's evaluation runs them.  The instances are
   [Instance.synthetic] draws against the SDSC_BLUE synthetic log (n = 50
   task DAGs, calendars of about 3k breakpoints), each with its own DAG and
   its own calendar; a row is one instance through every algorithm:

   - the four RESSCHED rows of Tables 4/5 ([Algo.ressched_main]), each one
     schedule;
   - the bound-driven Table 6/7 RESSCHEDDL algorithms, each an
     [Algo.prepare] plus a [Deadline.tightest] search driving the prepared
     closure.

   The resource-constrained ones (DL_RC_*, DL_RCBD_CPAR-λ) are left out:
   their cost swings 2–8× from one instance to the next, so a seed's few
   hard instances would set the rate of the whole batch, and the host
   leaves too little time to run enough instances to average them out.
   serve-deadline runs DL_RCBD_CPAR-λ, with its λ sweep. *)

module Algo = Mp_core.Algo
module Schedule = Mp_cpa.Schedule
module Instance = Mp_sim.Instance
module Scenario = Mp_sim.Scenario

let name = "paper-campaign"

type config = { n_instances : int; deadline_algos : string list }

let default =
  {
    n_instances = 24;
    deadline_algos = [ "DL_BD_ALL"; "DL_BD_CPA"; "DL_BD_CPAR" ];
  }

(* A small instance of the same workload, for the benchmark's own tests. *)
let tiny = { n_instances = 1; deadline_algos = [ "DL_BD_CPA" ] }

type algo = Ressched of Algo.ressched | Deadline of Algo.deadline

type state = {
  instances : Instance.t array;
  algos : algo array;
  parts : (string * float) list;
}

type result = R of Schedule.t | D of (int * Schedule.t) option

type outputs = { cells : result array }

let res = { Scenario.log = Mp_workload.Log_model.sdsc_blue; phi = 0.2; method_ = Expo }

let setup_with cfg ~seed =
  let timed f =
    let t0 = Clock.now_ns () in
    let r = f () in
    (r, float_of_int (Clock.now_ns () - t0) /. 1e9)
  in
  (* the log cache would hand a repeated set-up its log for free *)
  Mp_sim.Logcache.clear ();
  let (), log_s = timed (fun () -> ignore (Mp_sim.Logcache.jobs ~seed res.log)) in
  (* one DAG and one calendar per instance: [Instance.synthetic] draws
     them from a stream keyed by the application label *)
  let instances, inst_s =
    timed (fun () ->
        List.concat
          (List.init cfg.n_instances (fun k ->
               let app = { Scenario.default_app with label = Printf.sprintf "default/%d" k } in
               Instance.synthetic ~seed ~app ~res ~n_dags:1 ~n_cals:1)))
  in
  let find n =
    match Algo.deadline_find n with Some a -> Deadline a | None -> invalid_arg ("unknown " ^ n)
  in
  {
    instances = Array.of_list instances;
    algos =
      Array.of_list
        (List.map (fun a -> Ressched a) Algo.ressched_main @ List.map find cfg.deadline_algos);
    parts = [ ("workload.log_s", log_s); ("workload.instances_s", inst_s) ];
  }

let setup ~seed = setup_with default ~seed
let segments = 3
let window = 7
let n_algos st = Array.length st.algos
let period st = Some (n_algos st * Array.length st.instances)
let instance st i = st.instances.(i / n_algos st mod Array.length st.instances)
let algo_name = function Ressched a -> a.name | Deadline a -> a.name

let cell tr (inst : Instance.t) = function
  | Ressched a -> R (Trace.span tr "ressched.schedule" (fun () -> a.run inst.env inst.dag))
  | Deadline a ->
      let prepared = Trace.span tr "cpa.prepare" (fun () -> a.prepare inst.env inst.dag) in
      D
        (Trace.span tr "deadline.tightest" (fun () ->
             Mp_core.Deadline.tightest (Trace.probe tr prepared) inst.env inst.dag))

(* Cell [i] is instance [i / n_algos] (cycling) through algorithm
   [i mod n_algos]; a timed run stops only at the end of a round through
   every instance. *)
let run st (mode : Work.mode) stop =
  let out = ref [] in
  let op i =
    Option.iter (fun t -> Trace.set_req t i) mode.trace;
    let r =
      Trace.span mode.trace "campaign.cell" (fun () ->
          cell mode.trace (instance st i) st.algos.(i mod n_algos st))
    in
    out := r :: !out
  in
  let p = Option.get (period st) in
  let res = Loop.run ~stop ~boundary:(fun i -> i mod p = 0) op in
  (res, { cells = Array.of_list (List.rev !out) })

let errors _ = 0

let check st out =
  let violations = ref [] in
  Array.iteri
    (fun i r ->
      let inst = instance st i in
      let base = inst.env.calendar in
      let verdict =
        match r with
        | R s -> Schedule.validate inst.dag ~base s
        | D (Some (k, s)) -> Schedule.validate inst.dag ~base ~deadline:k s
        | D None -> Ok ()
      in
      match verdict with
      | Ok () -> ()
      | Error msg ->
          violations :=
            Printf.sprintf "cell %d (%s): %s" i (algo_name st.algos.(i mod n_algos st)) msg
            :: !violations)
    out.cells;
  List.rev !violations

let digest ?upto out =
  let upto = Option.value upto ~default:(Array.length out.cells) in
  let d = Loop.Digest_acc.create () in
  Array.iteri
    (fun i r ->
      if i < upto then
        Loop.Digest_acc.add_string d
          (match r with
          | R s -> Schedule.to_json s
          | D None -> "none"
          | D (Some (k, s)) -> string_of_int k ^ " " ^ Schedule.to_json s))
    out.cells;
  Loop.Digest_acc.hex d

let layers st _ =
  let bps =
    Array.fold_left
      (fun a (i : Instance.t) -> a + Mp_platform.Calendar.breakpoints i.env.calendar)
      0 st.instances
  in
  ("calendar.breakpoints", float_of_int bps /. float_of_int (Array.length st.instances))
  :: st.parts

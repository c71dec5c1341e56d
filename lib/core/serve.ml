module Engine = Mp_service.Engine
module Request = Mp_service.Request
module Response = Mp_service.Response
module Calendar = Mp_platform.Calendar
module Schedule = Mp_cpa.Schedule
module Journal = Mp_forensics.Journal
module Analytics = Mp_forensics.Analytics
module Render = Mp_forensics.Render

let unknown_algo name =
  Response.Error
    (Printf.sprintf "unknown algorithm %S (known: %s)" name (String.concat ", " Algo.all_names))

(* Whole-DAG work serializes here: the decision journal is one
   process-global instrument, so journaled runs must not overlap — and a
   submit running while an explain journals would leak its placements
   into the explain's story.  The reservation-protocol hot path never
   takes this lock. *)
let dag_lock = Mutex.create ()

let env ~q cal = Env.make ~calendar:cal ~q:(float_of_int q)

let submit ~algo ~deadline ~q cal dag =
  match Algo.find algo with
  | None -> unknown_algo algo
  | Some (`Ressched a) -> (
      match (deadline : Request.deadline_spec) with
      | No_deadline ->
          Mutex.protect dag_lock (fun () ->
              Response.Scheduled { schedule = a.Algo.run (env ~q cal) dag; deadline = None })
      | By _ | Tightest ->
          Response.Error
            (Printf.sprintf
               "%S is a RESSCHED algorithm (no deadline support); submit without a deadline or \
                pick a RESSCHEDDL algorithm"
               algo))
  | Some (`Deadline a) ->
      Mutex.protect dag_lock (fun () ->
          let env = env ~q cal in
          match (deadline : Request.deadline_spec) with
          | By k -> (
              match a.Algo.run env dag ~deadline:k with
              | Some schedule -> Response.Scheduled { schedule; deadline = Some k }
              | None -> Response.Infeasible { algo; deadline = Some k })
          | No_deadline | Tightest -> (
              (* the CLI's --deadline-omitted behaviour: search for the
                 tightest feasible deadline *)
              match Deadline.tightest (a.Algo.prepare env dag) env dag with
              | Some (k, schedule) -> Response.Scheduled { schedule; deadline = Some k }
              | None -> Response.Infeasible { algo; deadline = None }))

(* [Grant] entries come from the engine's reservation hot path, which does
   not take [dag_lock]: under a multi-site run another site may grant while
   we journal.  Our own run never records grants (schedulers place, they
   don't grant), so dropping them keeps the report deterministic. *)
let own_entries entries =
  List.filter (function Journal.Grant _ -> false | _ -> true) entries

let render_explain ~header ~format ~base sched entries =
  let turnaround = Schedule.turnaround sched in
  let until = max 1 turnaround in
  let final_cal = List.fold_left Calendar.reserve base (Schedule.reservations sched) in
  let analytics = Analytics.analyze final_cal ~from_:0 ~until in
  let slots =
    Array.to_list
      (Array.mapi
         (fun i (s : Schedule.slot) ->
           { Render.label = string_of_int i; start = s.start; finish = s.finish; procs = s.procs })
         sched.Schedule.slots)
  in
  match format with
  | "text" ->
      let buf = Buffer.create 4096 in
      Buffer.add_string buf (Printf.sprintf "%s; turnaround %d s\n\n" header turnaround);
      Buffer.add_string buf (Journal.story entries);
      Buffer.add_string buf (Format.asprintf "@.%a@." Analytics.pp analytics);
      Ok (Buffer.contents buf)
  | "json" ->
      Ok
        (Journal.to_jsonl entries
        ^ Printf.sprintf "{\"event\":\"analytics\",\"data\":%s}\n" (Analytics.to_json analytics))
  | "svg" -> Ok (Render.gantt_svg ~base ~slots ())
  | "html" ->
      Ok
        (Render.html ~title:header
           ~gantt:(Render.gantt_svg ~base ~slots ())
           ~profile:(Render.profile_svg base ~from_:0 ~until)
           ~analytics:(Format.asprintf "%a" Analytics.pp analytics)
           ~story:(Journal.story entries))
  | other -> Result.Error (Printf.sprintf "unknown format %S (text, json, svg, html)" other)

let explain ~algo ~deadline ~format ~q cal dag =
  match Algo.find algo with
  | None -> unknown_algo algo
  | Some found -> (
      Mutex.protect dag_lock @@ fun () ->
      let run_or_err =
        match found with
        | `Ressched a ->
            Ok ((fun () -> a.Algo.run (env ~q cal) dag), Printf.sprintf "algorithm %s" a.Algo.name)
        | `Deadline a -> (
            let env = env ~q cal in
            (* resolve the deadline before journaling: the tightest search
               probes many deadlines, and journaling only the final run
               keeps the story readable *)
            let resolved =
              match deadline with
              | Some k -> Ok (k, false)
              | None -> (
                  match Deadline.tightest (a.Algo.prepare env dag) env dag with
                  | Some (k, _) -> Ok (k, true)
                  | None ->
                      Result.Error (Printf.sprintf "no feasible deadline found for %s" a.Algo.name))
            in
            match resolved with
            | Result.Error _ as e -> e
            | Ok (k, tightest) ->
                Ok
                  ( (fun () ->
                      match a.Algo.run env dag ~deadline:k with
                      | Some sched -> sched
                      | None ->
                          failwith
                            (Printf.sprintf "deadline %d cannot be met by %s" k a.Algo.name)),
                    Printf.sprintf "algorithm %s, deadline %d s%s" a.Algo.name k
                      (if tightest then " (tightest)" else "") ))
      in
      match run_or_err with
      | Result.Error msg -> Response.Error msg
      | Ok (run, header) -> (
          let header =
            Printf.sprintf "%s on %d tasks, p=%d q=%d" header (Mp_dag.Dag.n dag)
              (Calendar.procs cal) q
          in
          Journal.reset ();
          match Journal.with_enabled run with
          | exception Failure msg -> Response.Error msg
          | sched -> (
              let entries = own_entries (Journal.take ()) in
              Journal.reset ();
              match render_explain ~header ~format ~base:cal sched entries with
              | Ok report -> Response.Explained report
              | Result.Error msg -> Response.Error msg)))

let handlers () = { Engine.submit; explain }

let engine ~sites () = Engine.create ~handlers:(handlers ()) ~sites ()

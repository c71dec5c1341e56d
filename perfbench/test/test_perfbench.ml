(* Tests of the benchmark itself: its inputs and digests are a function of
   the seed, its checkers catch wrong outputs, and its percentiles refuse
   to rest on too few samples. *)

open Perfbench
module Calendar = Mp_platform.Calendar
module Response = Mp_service.Response
module Schedule = Mp_cpa.Schedule

let segments cs = Array.map (fun c -> Calendar.segments c ~from_:0 ~until:(1 lsl 30)) cs

let dag_texts (st : Serve_deadline.state) =
  Array.to_list
    (Array.map (fun d -> Mp_prelude.Json.to_string (Mp_service.Request.dag_to_json d)) st.dags)

let deadline_run seed =
  let st = Serve_deadline.setup_with Serve_deadline.tiny ~seed in
  let _, out = Serve_deadline.run st Work.plain (Ops 6) in
  (st, out)

let test_same_seed () =
  let st1, out1 = deadline_run 3 and st2, out2 = deadline_run 3 in
  Alcotest.(check bool) "same preload" true
    (Array.map segments st1.preload = Array.map segments st2.preload);
  Alcotest.(check (list string)) "same DAGs" (dag_texts st1) (dag_texts st2);
  Alcotest.(check string) "same digest" (Serve_deadline.digest out1) (Serve_deadline.digest out2);
  Alcotest.(check (list string)) "outputs check" [] (Serve_deadline.check st1 out1);
  let _, out3 = deadline_run 4 in
  Alcotest.(check bool) "another seed, another digest" false
    (Serve_deadline.digest out1 = Serve_deadline.digest out3)

let protocol_run seed =
  let st = Serve_protocol.setup_with Serve_protocol.tiny ~seed in
  let _, out = Serve_protocol.run st Work.plain (Ops 400) in
  (st, out)

let test_protocol_same_seed () =
  let st, out1 = protocol_run 5 and _, out2 = protocol_run 5 in
  Alcotest.(check string) "same digest" (Serve_protocol.digest out1) (Serve_protocol.digest out2);
  Alcotest.(check (list string)) "outputs check" [] (Serve_protocol.check st out1)

let test_corrupt_schedule () =
  let st, out = deadline_run 3 in
  match out.resp.(1) with
  | Scheduled { schedule; deadline } ->
      let slots = Array.copy schedule.slots in
      slots.(0) <- { (slots.(0)) with finish = slots.(0).start };
      let resp = Array.copy out.resp in
      resp.(1) <- Scheduled { schedule = { slots }; deadline };
      let v = Serve_deadline.check st { out with resp } in
      Alcotest.(check bool) "corrupted schedule rejected" true (v <> [])
  | r -> Alcotest.failf "expected a schedule, got %s" (Response.to_string r)

let test_overcommitted_grant () =
  let st, out = protocol_run 5 in
  (* operation 1 reserves the shape operation 0 probed; start the check
     from a site-0 calendar on which that interval is fully booked, so the
     recorded grant overcommits it *)
  let start =
    match Serve_protocol.decode (Vec.get out.resp 0) with
    | Available (Some s) -> s
    | r -> Alcotest.failf "expected an available start, got %s" (Response.to_string r)
  in
  Alcotest.(check string) "granted" "granted"
    (Response.kind (Serve_protocol.decode (Vec.get out.resp 1)));
  let full = Mp_platform.Reservation.make ~start ~finish:(start + 1) ~procs:st.cfg.procs in
  let booked = Calendar.reserve (Calendar.create ~procs:st.cfg.procs) full in
  let st = { st with preload = Array.mapi (fun i c -> if i = 0 then booked else c) st.preload } in
  let v = Serve_protocol.check st out in
  Alcotest.(check bool) "overcommitted grant rejected" true
    (List.mem "operation 1: granted reservation does not fit the calendar" v)

let test_campaign () =
  let run () =
    let st = Campaign.setup_with Campaign.tiny ~seed:2 in
    let _, out = Campaign.run st Work.plain (Ops 5) in
    (st, out)
  in
  let st, out = run () and _, out' = run () in
  Alcotest.(check string) "same digest" (Campaign.digest out) (Campaign.digest out');
  Alcotest.(check (list string)) "outputs check" [] (Campaign.check st out);
  let cells = Array.copy out.cells in
  (match cells.(0) with
  | R s ->
      let more (x : Schedule.slot) = { x with procs = x.procs + 100_000 } in
      cells.(0) <- R { slots = Array.map more s.slots }
  | D _ -> Alcotest.fail "cell 0 is a RESSCHED cell");
  Alcotest.(check bool) "corrupted schedule rejected" true (Campaign.check st { cells } <> [])

(* The untraced metrics take each operation's least time over rounds, so
   a workload with a period must answer operation [i + period] exactly as
   it answered operation [i]. *)
let test_rounds_repeat () =
  let st = Serve_deadline.setup_with Serve_deadline.tiny ~seed:3 in
  let p = Option.get (Serve_deadline.period st) in
  let _, out = Serve_deadline.run st Work.plain (Ops (2 * p)) in
  for i = 0 to p - 1 do
    Alcotest.(check string)
      (Printf.sprintf "serve-deadline request %d" i)
      (Response.to_string out.resp.(i))
      (Response.to_string out.resp.(i + p))
  done;
  let st = Campaign.setup_with Campaign.tiny ~seed:2 in
  let p = Option.get (Campaign.period st) in
  let _, out = Campaign.run st Work.plain (Ops (2 * p)) in
  Alcotest.(check bool) "campaign round repeats" true
    (Array.sub out.cells 0 p = Array.sub out.cells p p)

let test_percentile () =
  let a n = Array.init n float_of_int in
  let ok = function Ok v -> Some v | Error _ -> None in
  Alcotest.(check (option (float 0.))) "p90 of 99 refused" None (ok (Pct.percentile (a 99) 90));
  Alcotest.(check (option (float 0.))) "p90 of 100" (Some 89.) (ok (Pct.percentile (a 100) 90));
  Alcotest.(check (option (float 0.))) "p50 of 19 refused" None (ok (Pct.percentile (a 19) 50));
  Alcotest.(check (option (float 0.))) "p50 of 20" (Some 9.) (ok (Pct.percentile (a 20) 50));
  Alcotest.(check (option (float 0.))) "empty refused" None (ok (Pct.percentile [||] 50))

(* The metrics the benchmark prints are the ones BENCHMARK.json declares,
   with the same units, and the result line is the JSON object expected. *)
let test_declared_metrics () =
  let module J = Mp_prelude.Json in
  let spec = J.parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) in
  let declared key =
    List.map
      (fun m -> (Option.get (J.str m "name"), Option.get (J.str m "unit")))
      (Option.get (J.arr spec key))
  in
  let named = Alcotest.(pair string string) in
  Alcotest.(check (list named)) "end-to-end" (declared "end_to_end") Bench.end_to_end_units;
  Alcotest.(check (list named)) "per-layer" (declared "per_layer") Bench.layer_units;
  let r =
    {
      Bench.correct = true;
      attempted = 3;
      failed = 0;
      metrics = [ { name = "ops_per_s"; value = 1.25; unit_ = "1/s" } ];
      notes = [];
    }
  in
  let j = J.parse (Bench.json r) in
  Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
    (match j with J.Obj kv -> List.map fst kv | _ -> []);
  let value =
    Option.bind (J.field j "metrics") (fun m ->
        Option.bind (J.field m "ops_per_s") (fun v -> J.num v "value"))
  in
  Alcotest.(check (option (float 0.))) "metric value" (Some 1.25) value

let () =
  Alcotest.run "perfbench"
    [
      ( "determinism",
        [
          Alcotest.test_case "serve-deadline same seed" `Quick test_same_seed;
          Alcotest.test_case "serve-protocol same seed" `Quick test_protocol_same_seed;
          Alcotest.test_case "paper-campaign same seed and checker" `Quick test_campaign;
          Alcotest.test_case "rounds repeat" `Quick test_rounds_repeat;
        ] );
      ( "checker",
        [
          Alcotest.test_case "corrupted schedule" `Quick test_corrupt_schedule;
          Alcotest.test_case "overcommitted grant" `Quick test_overcommitted_grant;
        ] );
      ("percentile", [ Alcotest.test_case "refuses thin tails" `Quick test_percentile ]);
      ( "output",
        [ Alcotest.test_case "declared metrics and result line" `Quick test_declared_metrics ] );
    ]

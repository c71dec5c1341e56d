(* Mp_obs: unit tests for the probe primitives, the determinism contract
   (tracing does not change scheduler output) and lossless merging of the
   per-domain buffers across domains.

   The obs registry and buffers are process-global, so every test starts
   from [Mp_obs.reset ()] and runs the observed section under
   [Mp_obs.with_enabled]. *)

module Obs = Mp_obs
module Rng = Mp_prelude.Rng
module Dag_gen = Mp_dag.Dag_gen
module Calendar = Mp_platform.Calendar
module Reservation = Mp_platform.Reservation
module Env = Mp_core.Env
module Ressched = Mp_core.Ressched
module Schedule = Mp_cpa.Schedule

let counter_value snap name =
  match List.assoc_opt name snap.Obs.Snapshot.counters with Some v -> v | None -> 0

let hist_opt snap name =
  List.find_opt (fun h -> h.Obs.Snapshot.hist_name = name) snap.Obs.Snapshot.hists

let events_named snap name =
  List.filter (fun e -> e.Obs.Snapshot.span_name = name) snap.Obs.Snapshot.events

(* ------------------------------------------------------------------ *)
(* Counters *)

let c_unit = Obs.Counter.make "test.counter.unit"
let c_disabled = Obs.Counter.make "test.counter.disabled"

let test_counter_incr_add () =
  Obs.reset ();
  Obs.with_enabled (fun () ->
      for _ = 1 to 5 do
        Obs.Counter.incr c_unit
      done;
      Obs.Counter.add c_unit 37);
  let snap = Obs.Snapshot.take () in
  Alcotest.(check int) "5 incrs + add 37" 42 (counter_value snap "test.counter.unit")

let test_counter_disabled_is_noop () =
  Obs.reset ();
  Obs.Counter.incr c_disabled;
  Obs.Counter.add c_disabled 100;
  let snap = Obs.Snapshot.take () in
  Alcotest.(check int) "disabled counter stays 0" 0 (counter_value snap "test.counter.disabled")

let test_reset_zeroes () =
  Obs.reset ();
  Obs.with_enabled (fun () -> Obs.Counter.incr c_unit);
  Obs.reset ();
  let snap = Obs.Snapshot.take () in
  Alcotest.(check int) "reset zeroes counters" 0 (counter_value snap "test.counter.unit")

(* ------------------------------------------------------------------ *)
(* Timers / histograms *)

let t_unit = Obs.Timer.make "test.timer.unit"

let test_timer_records () =
  Obs.reset ();
  Obs.with_enabled (fun () ->
      for _ = 1 to 10 do
        let t0 = Obs.Timer.start () in
        (* burn a little time so elapsed > 0 *)
        let s = ref 0 in
        for i = 1 to 1000 do
          s := !s + i
        done;
        ignore (Sys.opaque_identity !s);
        Obs.Timer.stop t_unit t0
      done);
  let snap = Obs.Snapshot.take () in
  match hist_opt snap "test.timer.unit" with
  | None -> Alcotest.fail "timer histogram missing"
  | Some h ->
      Alcotest.(check int) "10 samples" 10 h.count;
      Alcotest.(check bool) "total >= max" true (h.total_ns >= h.max_ns);
      Alcotest.(check int) "bucket counts sum to count" h.count (Array.fold_left ( + ) 0 h.buckets)

let test_timer_disabled_start_is_zero () =
  Obs.reset ();
  Alcotest.(check int) "start () = 0 when disabled" 0 (Obs.Timer.start ());
  (* a t0 of 0 (started while disabled) must be dropped even if the switch
     flips before the stop *)
  Obs.with_enabled (fun () -> Obs.Timer.stop t_unit 0);
  let snap = Obs.Snapshot.take () in
  match hist_opt snap "test.timer.unit" with
  | None -> ()
  | Some h -> Alcotest.(check int) "no sample from disabled start" 0 h.count

let test_percentile_from_buckets () =
  (* hand-built histogram: 90 samples in bucket 4 ([16,32) ns), 10 in
     bucket 10 ([1024,2048) ns) *)
  let buckets = Array.make 64 0 in
  buckets.(4) <- 90;
  buckets.(10) <- 10;
  let h =
    { Obs.Snapshot.hist_name = "hand"; count = 100; total_ns = 0; max_ns = 2047; buckets }
  in
  let p50 = Obs.Snapshot.percentile h 0.5 in
  let p99 = Obs.Snapshot.percentile h 0.99 in
  Alcotest.(check bool) "p50 inside [16,32)" true (p50 >= 16. && p50 < 32.);
  Alcotest.(check bool) "p99 inside [1024,2048)" true (p99 >= 1024. && p99 < 2048.);
  let empty = { h with count = 0; buckets = Array.make 64 0 } in
  Alcotest.(check bool) "empty hist -> nan" true (Float.is_nan (Obs.Snapshot.percentile empty 0.5))

(* ------------------------------------------------------------------ *)
(* Standalone histograms and exact summaries *)

let test_hist_basics () =
  let h = Obs.Hist.create () in
  Alcotest.(check int) "fresh count" 0 (Obs.Hist.count h);
  Alcotest.(check bool) "fresh percentile is nan" true
    (Float.is_nan (Obs.Hist.percentile h 0.5));
  List.iter (Obs.Hist.add h) [ 1; 20; 20; 1500; -5 ];
  Alcotest.(check int) "count" 5 (Obs.Hist.count h);
  (* -5 clamps to 0, so the total is 1 + 20 + 20 + 1500 *)
  Alcotest.(check int) "total (negatives clamp to 0)" 1541 (Obs.Hist.total h);
  Alcotest.(check int) "max sample" 1500 (Obs.Hist.max_sample h);
  let buckets = Obs.Hist.buckets h in
  Alcotest.(check int) "64 buckets" 64 (Array.length buckets);
  Alcotest.(check int) "bucket counts sum to count" 5 (Array.fold_left ( + ) 0 buckets);
  Alcotest.(check int) "0 and 1 land in bucket 0" 2 buckets.(0);
  Alcotest.(check int) "20s land in [16,32)" 2 buckets.(4);
  (* sorted samples: 0 1 20 20 1500 — the median lives in [16,32) *)
  let p50 = Obs.Hist.percentile h 0.5 in
  Alcotest.(check bool) "p50 inside [16,32)" true (p50 >= 16. && p50 < 32.);
  (* buckets returns a copy: scribbling on it must not corrupt the hist *)
  buckets.(0) <- 999;
  Alcotest.(check int) "buckets is a copy" 2 (Obs.Hist.buckets h).(0)

let test_hist_merge_and_clear () =
  let a = Obs.Hist.create () and b = Obs.Hist.create () in
  List.iter (Obs.Hist.add a) [ 3; 3 ];
  List.iter (Obs.Hist.add b) [ 1_000_000 ];
  Obs.Hist.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 3 (Obs.Hist.count a);
  Alcotest.(check int) "merged total" 1_000_006 (Obs.Hist.total a);
  Alcotest.(check int) "merged max" 1_000_000 (Obs.Hist.max_sample a);
  Alcotest.(check int) "source untouched" 1 (Obs.Hist.count b);
  (* the percentile estimate clamps to the observed max *)
  Alcotest.(check bool) "p100 clamps to max" true
    (Obs.Hist.percentile a 1.0 <= 1_000_000.);
  Obs.Hist.clear a;
  Alcotest.(check int) "clear zeroes count" 0 (Obs.Hist.count a);
  Alcotest.(check int) "clear zeroes total" 0 (Obs.Hist.total a);
  Alcotest.(check int) "clear zeroes buckets" 0
    (Array.fold_left ( + ) 0 (Obs.Hist.buckets a))

let test_summary_percentiles () =
  (* nearest-rank on a sorted 0..999 array: p must index floor(q*n) *)
  let a = Array.init 1000 (fun i -> i) in
  Alcotest.(check int) "p50 of 0..999" 500 (Obs.Summary.percentile a 0.5);
  Alcotest.(check int) "p99 of 0..999" 990 (Obs.Summary.percentile a 0.99);
  Alcotest.(check int) "p999 of 0..999" 999 (Obs.Summary.percentile a 0.999);
  Alcotest.(check int) "p0 of 0..999" 0 (Obs.Summary.percentile a 0.0);
  Alcotest.(check int) "empty array -> 0" 0 (Obs.Summary.percentile [||] 0.5)

let test_summary_of_samples () =
  let input = [| 5; 1; 4; 2; 3 |] in
  let s = Obs.Summary.of_samples input in
  Alcotest.(check int) "count" 5 s.Obs.Summary.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Obs.Summary.mean;
  Alcotest.(check int) "p50" 3 s.Obs.Summary.p50;
  Alcotest.(check int) "p99 is the top sample" 5 s.Obs.Summary.p99;
  Alcotest.(check int) "p999 is the top sample" 5 s.Obs.Summary.p999;
  Alcotest.(check int) "max" 5 s.Obs.Summary.max;
  Alcotest.(check (array int)) "input not mutated" [| 5; 1; 4; 2; 3 |] input;
  let empty = Obs.Summary.of_list [] in
  Alcotest.(check int) "empty count" 0 empty.Obs.Summary.count;
  Alcotest.(check int) "empty p999" 0 empty.Obs.Summary.p999;
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 empty.Obs.Summary.mean

(* ------------------------------------------------------------------ *)
(* Spans *)

let sp_outer = Obs.Span.make "test.span.outer"
let sp_inner = Obs.Span.make "test.span.inner"

let test_span_nesting () =
  Obs.reset ();
  Obs.with_enabled (fun () ->
      Obs.Span.enter sp_outer;
      Obs.Span.enter sp_inner;
      Obs.Span.exit sp_inner;
      Obs.Span.exit sp_outer);
  let snap = Obs.Snapshot.take () in
  let outer = events_named snap "test.span.outer" in
  let inner = events_named snap "test.span.inner" in
  Alcotest.(check int) "one outer event" 1 (List.length outer);
  Alcotest.(check int) "one inner event" 1 (List.length inner);
  let o = List.hd outer and i = List.hd inner in
  Alcotest.(check bool) "inner starts after outer" true (i.start_ns >= o.start_ns);
  Alcotest.(check bool) "inner nested in outer" true
    (i.start_ns + i.dur_ns <= o.start_ns + o.dur_ns);
  Alcotest.(check bool) "events sorted by start" true
    (let rec sorted = function
       | a :: (b :: _ as rest) -> a.Obs.Snapshot.start_ns <= b.Obs.Snapshot.start_ns && sorted rest
       | _ -> true
     in
     sorted snap.events)

let test_span_wrap_on_exception () =
  Obs.reset ();
  Obs.with_enabled (fun () ->
      (try Obs.Span.wrap sp_outer (fun () -> failwith "boom") with Failure _ -> ());
      (* the stack must be balanced again: a fresh span still records *)
      Obs.Span.wrap sp_inner Fun.id);
  let snap = Obs.Snapshot.take () in
  Alcotest.(check int) "exceptional wrap recorded" 1 (List.length (events_named snap "test.span.outer"));
  Alcotest.(check int) "stack balanced after exception" 1
    (List.length (events_named snap "test.span.inner"))

let test_span_unmatched_exit_dropped () =
  Obs.reset ();
  Obs.with_enabled (fun () -> Obs.Span.exit sp_outer);
  let snap = Obs.Snapshot.take () in
  Alcotest.(check int) "unmatched exit dropped" 0 (List.length snap.events)

let test_event_cap_counts_drops () =
  Obs.reset ();
  Obs.set_event_cap 8;
  Obs.with_enabled (fun () ->
      for _ = 1 to 20 do
        Obs.Span.wrap sp_outer Fun.id
      done);
  let snap = Obs.Snapshot.take () in
  Obs.set_event_cap 1_000_000;
  Alcotest.(check int) "events capped" 8 (List.length snap.events);
  Alcotest.(check int) "drops counted" 12 (counter_value snap "obs.events.dropped")

let test_tag_stamps_events () =
  Obs.reset ();
  Obs.with_enabled (fun () ->
      Obs.Tag.set ~req:42 ~site:3;
      Obs.Span.wrap sp_outer Fun.id;
      Obs.Tag.clear ();
      Obs.Span.wrap sp_inner Fun.id);
  let snap = Obs.Snapshot.take () in
  (match events_named snap "test.span.outer" with
  | [ e ] ->
      Alcotest.(check (option (pair int int))) "tagged event carries (req, site)"
        (Some (42, 3)) e.Obs.Snapshot.tag
  | es -> Alcotest.failf "expected one tagged event, got %d" (List.length es));
  (match events_named snap "test.span.inner" with
  | [ e ] ->
      Alcotest.(check (option (pair int int))) "cleared tag -> None" None e.Obs.Snapshot.tag
  | es -> Alcotest.failf "expected one untagged event, got %d" (List.length es));
  (* the Chrome trace surfaces the tag as event args *)
  let trace = Obs.Trace.to_chrome snap in
  let contains hay needle = Re.execp (Re.compile (Re.str needle)) hay in
  Alcotest.(check bool) "trace has tag args" true
    (contains trace "\"args\":{\"req\":42,\"site\":3}")

let test_tag_cleared_by_reset () =
  Obs.reset ();
  Obs.with_enabled (fun () -> Obs.Tag.set ~req:7 ~site:0);
  Obs.reset ();
  Obs.with_enabled (fun () -> Obs.Span.wrap sp_outer Fun.id);
  let snap = Obs.Snapshot.take () in
  match events_named snap "test.span.outer" with
  | [ e ] -> Alcotest.(check (option (pair int int))) "reset clears tags" None e.Obs.Snapshot.tag
  | es -> Alcotest.failf "expected one event, got %d" (List.length es)

(* The zero-overhead contract: with the switch off, every probe —
   counters, timers, spans, tags — is one load-and-branch with no
   allocation.  Gc.minor_words is exact in native code; the slack only
   covers the two boxed floats the measurement itself allocates. *)
let test_disabled_probes_do_not_allocate () =
  Obs.reset ();
  Alcotest.(check bool) "tracing is off" false !Obs.enabled;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Obs.Counter.incr c_unit;
    Obs.Counter.add c_unit i;
    let t0 = Obs.Timer.start () in
    Obs.Timer.stop t_unit t0;
    Obs.Span.enter sp_outer;
    Obs.Span.exit sp_outer;
    Obs.Tag.set ~req:i ~site:0;
    Obs.Tag.clear ()
  done;
  let after = Gc.minor_words () in
  Alcotest.(check bool) "disabled probes allocate nothing" true (after -. before < 256.)

(* ------------------------------------------------------------------ *)
(* Snapshot.sub, Report, Trace *)

let test_snapshot_sub () =
  Obs.reset ();
  Obs.with_enabled (fun () ->
      Obs.Counter.add c_unit 3;
      Obs.Span.wrap sp_outer Fun.id);
  let earlier = Obs.Snapshot.take () in
  Obs.with_enabled (fun () ->
      Obs.Counter.add c_unit 4;
      Obs.Span.wrap sp_outer Fun.id;
      let t0 = Obs.Timer.start () in
      Obs.Timer.stop t_unit t0);
  let later = Obs.Snapshot.take () in
  let d = Obs.Snapshot.sub later ~earlier in
  Alcotest.(check int) "counter delta" 4 (counter_value d "test.counter.unit");
  Alcotest.(check int) "event delta" 1 (List.length (events_named d "test.span.outer"));
  match hist_opt d "test.timer.unit" with
  | None -> Alcotest.fail "timer delta missing"
  | Some h -> Alcotest.(check int) "hist delta count" 1 h.count

let test_report_and_trace () =
  Obs.reset ();
  Obs.with_enabled (fun () ->
      Obs.Counter.add c_unit 7;
      let t0 = Obs.Timer.start () in
      Obs.Timer.stop t_unit t0;
      Obs.Span.wrap sp_outer Fun.id);
  let snap = Obs.Snapshot.take () in
  let text = Obs.Report.text snap in
  let contains hay needle =
    let re = Re.compile (Re.str needle) in
    Re.execp re hay
  in
  Alcotest.(check bool) "text mentions counter" true (contains text "test.counter.unit");
  Alcotest.(check bool) "text mentions timer" true (contains text "test.timer.unit");
  let json = Obs.Report.to_json snap in
  Alcotest.(check bool) "json schema tag" true (contains json "mpres-obs-1");
  Alcotest.(check bool) "json has p95" true (contains json "p95_ns");
  let trace = Obs.Trace.to_chrome snap in
  Alcotest.(check bool) "trace has traceEvents" true (contains trace "traceEvents");
  Alcotest.(check bool) "trace has complete events" true (contains trace "\"ph\":\"X\"");
  Alcotest.(check bool) "trace names domain tracks" true (contains trace "thread_name");
  Alcotest.(check bool) "empty snapshot -> empty report" true (Obs.Report.text (Obs.Snapshot.sub snap ~earlier:snap) = "")

(* ------------------------------------------------------------------ *)
(* Determinism: tracing must not change scheduler output *)

let busy_env ?(p = 8) ?(n_res = 10) seed =
  let rng = Rng.create seed in
  let rec add cal k =
    if k = 0 then cal
    else begin
      let start = Rng.int rng 40_000 in
      let dur = 600 + Rng.int rng 4_000 in
      let procs = 1 + Rng.int rng (p / 2) in
      match Calendar.reserve_opt cal (Reservation.make ~start ~finish:(start + dur) ~procs) with
      | Some cal -> add cal (k - 1)
      | None -> add cal (k - 1)
    end
  in
  let calendar = add (Calendar.create ~procs:p) n_res in
  Env.make ~calendar ~q:(Calendar.average_available calendar ~from_:0 ~until:40_000)

let test_tracing_does_not_change_schedules =
  QCheck.Test.make ~count:25 ~name:"tracing does not change scheduler output"
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let env = busy_env (s1 + 1) in
      let dag = Dag_gen.generate (Rng.create (s2 + 1)) { Dag_gen.default with n = 15 } in
      let blind = Ressched.schedule env dag in
      Obs.reset ();
      let traced = Obs.with_enabled (fun () -> Ressched.schedule env dag) in
      Obs.reset ();
      blind = traced)

(* ------------------------------------------------------------------ *)
(* Concurrency: per-domain buffers merge losslessly across domains *)

let c_par = Obs.Counter.make "test.par.counter"
let t_par = Obs.Timer.make "test.par.timer"
let sp_par = Obs.Span.make "test.par.span"

let merge_under_pool jobs () =
  Obs.reset ();
  let n = 200 in
  let out = Array.make n 0 in
  (* Worker [w] records items w, w + jobs, w + 2·jobs, … on its own
     domain (the caller is worker 0), so every domain is guaranteed to
     record events and the >1-domain assertion below is not racy. *)
  let stripe w () =
    let i = ref w in
    while !i < n do
      Obs.Span.wrap sp_par (fun () ->
          Obs.Counter.add c_par !i;
          let t0 = Obs.Timer.start () in
          Obs.Timer.stop t_par t0;
          out.(!i) <- !i * 2);
      i := !i + jobs
    done
  in
  Obs.with_enabled (fun () ->
      let spawned = List.init (jobs - 1) (fun w -> Domain.spawn (stripe (w + 1))) in
      stripe 0 ();
      List.iter Domain.join spawned);
  Alcotest.(check int) "results merged in order" (n * (n - 1))
    (Array.fold_left ( + ) 0 out);
  let snap = Obs.Snapshot.take () in
  Alcotest.(check int) "no events dropped" 0 (counter_value snap "obs.events.dropped");
  Alcotest.(check int) "counter adds all merged" (n * (n - 1) / 2)
    (counter_value snap "test.par.counter");
  (match hist_opt snap "test.par.timer" with
  | None -> Alcotest.fail "parallel timer histogram missing"
  | Some h -> Alcotest.(check int) "timer samples all merged" n h.count);
  let cell_events = events_named snap "test.par.span" in
  Alcotest.(check int) "span events all merged" n (List.length cell_events);
  (* with several workers the events must span more than one domain track *)
  let domains =
    List.sort_uniq compare (List.map (fun e -> e.Obs.Snapshot.domain) cell_events)
  in
  if jobs > 1 then
    Alcotest.(check bool) "events from more than one domain" true (List.length domains > 1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mp_obs"
    [
      ( "counter",
        [
          Alcotest.test_case "incr and add" `Quick test_counter_incr_add;
          Alcotest.test_case "disabled is a no-op" `Quick test_counter_disabled_is_noop;
          Alcotest.test_case "reset zeroes" `Quick test_reset_zeroes;
        ] );
      ( "timer",
        [
          Alcotest.test_case "records samples" `Quick test_timer_records;
          Alcotest.test_case "disabled start is dropped" `Quick test_timer_disabled_start_is_zero;
          Alcotest.test_case "percentiles from buckets" `Quick test_percentile_from_buckets;
        ] );
      ( "hist",
        [
          Alcotest.test_case "basics" `Quick test_hist_basics;
          Alcotest.test_case "merge and clear" `Quick test_hist_merge_and_clear;
        ] );
      ( "summary",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_summary_percentiles;
          Alcotest.test_case "of_samples" `Quick test_summary_of_samples;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "wrap on exception" `Quick test_span_wrap_on_exception;
          Alcotest.test_case "unmatched exit dropped" `Quick test_span_unmatched_exit_dropped;
          Alcotest.test_case "event cap counts drops" `Quick test_event_cap_counts_drops;
          Alcotest.test_case "tag stamps events" `Quick test_tag_stamps_events;
          Alcotest.test_case "tag cleared by reset" `Quick test_tag_cleared_by_reset;
          Alcotest.test_case "disabled probes do not allocate" `Quick
            test_disabled_probes_do_not_allocate;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "sub gives section deltas" `Quick test_snapshot_sub;
          Alcotest.test_case "report and trace render" `Quick test_report_and_trace;
        ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest test_tracing_does_not_change_schedules ] );
      ( "concurrency",
        [
          Alcotest.test_case "merge under pool, jobs=2" `Quick (merge_under_pool 2);
          Alcotest.test_case "merge under pool, jobs=4" `Quick (merge_under_pool 4);
        ] );
    ]

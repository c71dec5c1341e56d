(* Running one workload: set-up, timed phase, output check and metrics.

   An untraced run ([--trace 0]) shares its seconds out between
   [W.segments] set-ups of the same seed (the set-up time is their
   median).  After each set-up it runs the closed loop with no
   instrumentation but the latency clock and checks the outputs.  The same
   operations recur, in rounds within a segment when the workload has a
   period and across segments otherwise; the end-to-end metrics take each
   operation's least latency and each window's least wall time over the
   rounds, because the host's other load only ever adds time and drifts
   over seconds.

   A traced run ([--trace 1]) reports the per-layer metrics from separate
   phases, each on a fresh set-up of the same seed:

   - U: the benchmark's own spans on, [Mp_obs] off — per-layer times, and
     the untraced wall time;
   - P (serve-deadline only): the first [probe_requests] requests again,
     with deadline submits rerouted through the benchmark's own
     [Algo.prepare] / [Deadline.tightest] calls so each probe is a span;
   - O: [Mp_obs] on, over the operations of U's first half — per-layer
     counts, and the traced wall time, compared with U's wall time over
     the same operations.

   The digests of the three phases must agree: tracing only records. *)

let workloads : (string * (module Work.S)) list =
  [
    (Serve_deadline.name, (module Serve_deadline));
    (Serve_protocol.name, (module Serve_protocol));
    (Campaign.name, (module Campaign));
  ]

(* Requests phase P reruns with every deadline probe as a span. *)
let probe_requests = 32

type metric = { name : string; value : float; unit_ : string }

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let json r =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit_)
          r.metrics))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

let seconds_since t0 = float_of_int (Clock.now_ns () - t0) /. 1e9

let check_notes violations =
  List.filteri (fun i _ -> i < 10) violations |> List.map (fun v -> "violation: " ^ v)

(* End-to-end metrics and their units, in the order printed. *)
let end_to_end_units =
  [
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* Per-layer metrics and their units.  Every traced run reports all of
   them; a layer a workload never enters reads 0. *)
let layer_units =
  [
    ("engine.handle_ms", "ms");
    ("engine.self_ms", "ms");
    ("serve.submit_ms", "ms");
    ("deadline.tightest.probes", "count/op");
    ("deadline.tasks_placed", "count/probe");
    ("deadline.probe_ms", "ms");
    ("deadline.probe_feasible_ratio", "ratio");
    ("deadline.failed_probe_share", "ratio");
    ("cpa.prepare_ms", "ms");
    ("cpa.mapping.calls", "count/op");
    ("cpa.allocate.calls", "count/op");
    ("ressched.schedule_ms", "ms");
    ("ressched.tasks_placed", "count/op");
    ("calendar.earliest_fit.calls", "count/op");
    ("calendar.latest_fit.calls", "count/op");
    ("calendar.reserve.calls", "count/op");
    ("calendar.fit_us", "us");
    ("calendar.breakpoints", "count");
    ("index.node_visits", "count/call");
    ("index.descents", "count/op");
    ("workload.log_s", "s");
    ("workload.instances_s", "s");
    ("gc.minor_words", "words/op");
    ("gc.major_collections", "count");
    ("trace.overhead_ratio", "ratio");
  ]

let ratio a b = if b = 0. then 0. else a /. b

module Run (W : Work.S) = struct
  let setup ~seed =
    Gc.full_major ();
    let t0 = Clock.now_ns () in
    let st = W.setup ~seed in
    (st, seconds_since t0)

  (* One set-up and the timed run on it, kept to what the metrics need:
     the outputs are checked and dropped before the next set-up. *)
  type segment = {
    setup_s : float;
    ops : int;
    wall_ns : int;
    lat_ns : int array;
    end_ns : int array;
    failed : int;
    violations : string list;
    digest : string;  (** of the first {!digest_ops} operations *)
    period : int option;
  }

  (* The operations every digest covers, traced or not: the first round,
     or the first 1000 operations of a workload without a period. *)
  let digest_ops st ops = min ops (Option.value (W.period st) ~default:1000)

  let segment ~seed ~seconds =
    let st, setup_s = setup ~seed in
    let res, out = W.run st Work.plain (Seconds seconds) in
    let violations = W.check st out in
    {
      setup_s;
      ops = res.ops;
      wall_ns = res.wall_ns;
      lat_ns = res.lat_ns;
      end_ns = res.end_ns;
      failed = W.errors out + List.length violations;
      violations;
      digest = W.digest ~upto:(digest_ops st res.ops) out;
      period = W.period st;
    }

  (* The rounds of a run: the first operation of each, over all segments,
     and their common length.  With a period a segment holds its complete
     rounds; without one a segment is one round, as long as the shortest
     segment, in whole windows. *)
  let rounds segs =
    match (List.hd segs).period with
    | Some p -> (p, List.map (fun g -> (g, List.init (g.ops / p) (fun r -> r * p))) segs)
    | None ->
        let len = List.fold_left (fun m g -> min m g.ops) max_int segs in
        (len / W.window * W.window, List.map (fun g -> (g, [ 0 ])) segs)

  let untraced ~seed ~seconds =
    (* each segment gets an equal share of the time its predecessors left *)
    let rec run_segments k left =
      if k = 0 then []
      else
        let g = segment ~seed ~seconds:(left /. float_of_int k) in
        g :: run_segments (k - 1) (left -. (float_of_int g.wall_ns /. 1e9))
    in
    let segs = run_segments W.segments seconds in
    let rss = peak_rss_mb () in
    let len, starts = rounds segs in
    (* an operation's latency is the least of its times over the rounds,
       and a window's wall time likewise: the host's other load only ever
       adds time *)
    let best = Array.make len max_int and best_window = Array.make (len / W.window) max_int in
    let walls = ref [] in
    List.iter
      (fun (g, ss) ->
        List.iter
          (fun s ->
            let ended i = if i < 0 then 0 else g.end_ns.(i) in
            for j = 0 to len - 1 do
              best.(j) <- min best.(j) g.lat_ns.(s + j)
            done;
            Array.iteri
              (fun w b ->
                let a = s + (w * W.window) in
                best_window.(w) <- min b (ended (a + W.window - 1) - ended (a - 1)))
              best_window;
            walls := (ended (s + len - 1) - ended (s - 1)) :: !walls)
          ss)
      starts;
    let walls = List.sort compare !walls in
    let n_rounds = List.length walls in
    let rate wall_ns = float_of_int len /. (float_of_int wall_ns /. 1e9) in
    let violations = List.concat_map (fun g -> g.violations) segs in
    let failed = List.fold_left (fun n g -> n + g.failed) 0 segs in
    let digest = (List.hd segs).digest in
    let disagree = List.exists (fun g -> g.digest <> digest) segs in
    let attempted = List.fold_left (fun n g -> n + g.ops) 0 segs in
    let setup_times = List.map (fun g -> g.setup_s) segs in
    let lat = Array.map (fun ns -> float_of_int ns /. 1e6) best in
    Array.sort compare lat;
    let pct p = Result.map_error (fun msg -> W.name ^ ": " ^ msg) (Pct.percentile lat p) in
    match (pct 50, pct 90) with
    | Error msg, _ | _, Error msg -> Error msg
    | Ok p50, Ok p90 ->
        let values =
          [
            ("ops_per_s", rate (Array.fold_left ( + ) 0 best_window));
            ("latency_p50_ms", p50);
            ("latency_p90_ms", p90);
            ("setup_s", Pct.median setup_times);
            ("peak_rss_mb", rss);
          ]
        in
        Ok
          {
            correct = failed = 0 && not disagree;
            attempted;
            failed;
            metrics =
              List.map
                (fun (name, unit_) -> { name; unit_; value = List.assoc name values })
                end_to_end_units;
            notes =
              [
                Printf.sprintf "workload %s seed %d: %d operations after %d set-ups, %d failed"
                  W.name seed attempted W.segments failed;
                Printf.sprintf
                  "%d rounds of %d operations; operations/s by round: fastest %.4g, median %.4g, \
                   slowest %.4g"
                  n_rounds len (List.hd walls |> rate)
                  (List.nth walls (n_rounds / 2) |> rate)
                  (List.nth walls (n_rounds - 1) |> rate);
                Printf.sprintf "latency samples %d (p50 and p90 each have >= %d beyond)" len
                  Pct.min_beyond;
                Printf.sprintf "setup_s samples %s"
                  (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
                Printf.sprintf "digest %s %s%s" W.name digest
                  (if disagree then " (set-ups DISAGREE)" else "");
              ]
              @ check_notes violations;
          }

  let traced ~seed ~seconds ~out_dir =
    (* U: the benchmark's spans, Mp_obs off *)
    let st, _ = setup ~seed in
    let tr = Trace.create () in
    let gc0 = Gc.quick_stat () in
    let res, out = W.run st { trace = Some tr; reroute = false } (Seconds seconds) in
    let gc1 = Gc.quick_stat () in
    let n = res.ops in
    let violations = W.check st out in
    let measured = W.layers st out in
    let digest_u = W.digest ~upto:(digest_ops st n) out in
    (* P: deadline probes as spans, on the first [probe_requests] requests *)
    let ptr, digest_p_ok =
      if W.name = Serve_deadline.name then begin
        let st, _ = setup ~seed in
        let ptr = Trace.create () in
        let k = min n probe_requests in
        let _, out_p = W.run st { trace = Some ptr; reroute = true } (Ops k) in
        (ptr, W.digest out_p = W.digest ~upto:k out)
      end
      else (tr, true)
    in
    (* O: Mp_obs counters on, over U's first half *)
    let m, mid_wall_ns = res.mid in
    let st, _ = setup ~seed in
    Mp_obs.set_event_cap 0;
    Mp_obs.reset ();
    let res_o, out_o =
      Mp_obs.with_enabled (fun () ->
          W.run st { trace = Some (Trace.create ()); reroute = false } (Ops m))
    in
    let snap = Mp_obs.Snapshot.take () in
    let digest_o_ok = W.digest out_o = W.digest ~upto:m out in
    let counter name = float_of_int (Option.value (List.assoc_opt name snap.counters) ~default:0) in
    let ops = float_of_int m in
    let probes = counter "deadline.tightest.probes" in
    let fits = counter "calendar.earliest_fit.calls" +. counter "calendar.latest_fit.calls" in
    let span_ms t name = Trace.mean_ms t name in
    let values =
      [
        ("engine.handle_ms", span_ms tr "engine.handle");
        ( "engine.self_ms",
          ratio (float_of_int (Trace.self_ns tr "engine.handle") /. 1e6)
            (float_of_int (Trace.count tr "engine.handle")) );
        ("serve.submit_ms", span_ms tr "serve.submit");
        ("deadline.tightest.probes", counter "deadline.tightest.probes" /. ops);
        ("deadline.tasks_placed", ratio (counter "deadline.tasks_placed") probes);
        ("deadline.probe_ms", span_ms ptr "deadline.probe");
        ( "deadline.probe_feasible_ratio",
          let all = float_of_int (Trace.count ptr "deadline.probe") in
          ratio (all -. float_of_int (Trace.count ptr "deadline.probe.failed")) all );
        ( "deadline.failed_probe_share",
          ratio
            (float_of_int (Trace.total_ns ptr "deadline.probe.failed"))
            (float_of_int (Trace.total_ns ptr "deadline.probe")) );
        ("cpa.prepare_ms", span_ms ptr "cpa.prepare");
        ("cpa.mapping.calls", counter "cpa.mapping.calls" /. ops);
        ("cpa.allocate.calls", counter "cpa.allocate.calls" /. ops);
        ("ressched.schedule_ms", span_ms tr "ressched.schedule");
        ("ressched.tasks_placed", counter "ressched.tasks_placed" /. ops);
        ("calendar.earliest_fit.calls", counter "calendar.earliest_fit.calls" /. ops);
        ("calendar.latest_fit.calls", counter "calendar.latest_fit.calls" /. ops);
        ("calendar.reserve.calls", counter "calendar.reserve.calls" /. ops);
        ("index.node_visits", ratio (counter "index.node_visits") fits);
        ("index.descents", counter "index.descents" /. ops);
        ("gc.minor_words", (gc1.minor_words -. gc0.minor_words) /. float_of_int n);
        ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
        ("trace.overhead_ratio", ratio (float_of_int res_o.wall_ns) (float_of_int mid_wall_ns));
      ]
      @ measured
    in
    let metrics =
      List.map
        (fun (name, unit_) ->
          { name; unit_; value = Option.value (List.assoc_opt name values) ~default:0. })
        layer_units
    in
    let digests_ok = digest_o_ok && digest_p_ok in
    let failed = W.errors out + List.length violations in
    (* the spans and the per-layer table, written out once the run is over *)
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    let write file s =
      let path = Filename.concat out_dir file in
      Out_channel.with_open_text path (fun oc -> output_string oc s);
      path
    in
    (* process 1 is phase U; process 2, when there is one, phase P *)
    let trace_file =
      write (W.name ^ ".trace.json") (Trace.chrome (if ptr != tr then [ tr; ptr ] else [ tr ]))
    in
    let table =
      Printf.sprintf "# %s seed %d: %d operations\n\n## spans (phase U)\n%s" W.name seed n
        (Trace.table tr ~ops:n)
      ^ (if ptr != tr then
           let k = Trace.count ptr "serve.submit" in
           Printf.sprintf "\n## spans (phase P, first %d requests)\n%s" k (Trace.table ptr ~ops:k)
         else "")
      ^ "\n## per-layer metrics\n"
      ^ String.concat ""
          (List.map (fun m -> Printf.sprintf "%-30s %16.6f %s\n" m.name m.value m.unit_) metrics)
    in
    let table_file = write (W.name ^ ".layers.txt") table in
    {
      correct = failed = 0 && digests_ok;
      attempted = n;
      failed;
      metrics;
      notes =
        [
          Printf.sprintf "workload %s seed %d traced: %d operations, %d failed" W.name seed n
            failed;
          Printf.sprintf "digest %s %s (phase U; phases P and O %s)" W.name digest_u
            (if digests_ok then "agree on their prefixes" else "DISAGREE");
          Printf.sprintf "wrote %s and %s" trace_file table_file;
        ]
        @ check_notes violations;
    }
end

let untraced (module W : Work.S) =
  let module R = Run (W) in
  R.untraced

let traced (module W : Work.S) =
  let module R = Run (W) in
  R.traced

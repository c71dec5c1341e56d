(* The benchmark's own spans, recorded around its calls into each layer.

   A span has a name, a start and an end, the span that was open when it
   started (its parent) and the request it belongs to.  Per-name totals
   (count, total time, self time) cover every span; the first [cap] events
   are kept for the Chrome trace.  Self time is a span's duration
   minus the time its child spans cover.  All spans of a run nest on one
   domain, so the children of a span never overlap and their durations add
   up to the covered time. *)

type agg = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

type event = { id : int; name : string; start_ns : int; end_ns : int; parent : int; req : int }

type frame = { f_id : int; f_name : string; f_start : int; mutable child_ns : int }

type t = {
  aggs : (string, agg) Hashtbl.t;
  mutable stack : frame list;
  mutable events : event list;  (* most recent first *)
  mutable n_events : int;
  mutable next_id : int;
  mutable req : int;
}

let cap = 200_000

let create () =
  { aggs = Hashtbl.create 16; stack = []; events = []; n_events = 0; next_id = 0; req = -1 }

let set_req t req = t.req <- req

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
      let a = { count = 0; total_ns = 0; self_ns = 0 } in
      Hashtbl.replace t.aggs name a;
      a

let enter t name =
  let f = { f_id = t.next_id; f_name = name; f_start = Clock.now_ns (); child_ns = 0 } in
  t.next_id <- t.next_id + 1;
  t.stack <- f :: t.stack

(* Close the innermost span; returns its duration. *)
let exit t =
  let stop = Clock.now_ns () in
  match t.stack with
  | [] -> invalid_arg "Trace.exit: no open span"
  | f :: rest ->
      t.stack <- rest;
      let dur = stop - f.f_start in
      let parent =
        match rest with
        | p :: _ ->
            p.child_ns <- p.child_ns + dur;
            p.f_id
        | [] -> -1
      in
      let a = agg t f.f_name in
      a.count <- a.count + 1;
      a.total_ns <- a.total_ns + dur;
      a.self_ns <- a.self_ns + (dur - f.child_ns);
      if t.n_events < cap then begin
        t.events <-
          { id = f.f_id; name = f.f_name; start_ns = f.f_start; end_ns = stop; parent; req = t.req }
          :: t.events;
        t.n_events <- t.n_events + 1
      end;
      dur

(* [span tr name f] is [f ()], inside a span when tracing. *)
let span tr name f =
  match tr with
  | None -> f ()
  | Some t -> (
      enter t name;
      match f () with
      | r ->
          ignore (exit t);
          r
      | exception e ->
          ignore (exit t);
          raise e)

(* Add a duration to a named total without an event: used to split a
   span's time by outcome (e.g. the share spent in failing probes). *)
let add t name dur =
  let a = agg t name in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + dur

let find t name = Hashtbl.find_opt t.aggs name
let count t name = match find t name with Some a -> a.count | None -> 0
let total_ns t name = match find t name with Some a -> a.total_ns | None -> 0
let self_ns t name = match find t name with Some a -> a.self_ns | None -> 0

(* Mean duration of one span, in ms; 0 when the span never ran. *)
let mean_ms t name =
  match find t name with
  | Some a when a.count > 0 -> float_of_int a.total_ns /. float_of_int a.count /. 1e6
  | _ -> 0.

(* Chrome trace-event JSON; each trace is one process track, its times
   relative to its own first event. *)
let chrome traces =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iteri
    (fun pid t ->
      let t0 = List.fold_left (fun m e -> min m e.start_ns) max_int t.events in
      List.iter
        (fun e ->
          if not !first then Buffer.add_string b ",\n";
          first := false;
          Printf.bprintf b
            "{\"name\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
            e.name (pid + 1)
            (float_of_int (e.start_ns - t0) /. 1e3)
            (float_of_int (e.end_ns - e.start_ns) /. 1e3)
            e.id e.parent e.req)
        (List.rev t.events))
    traces;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* One line per span name: count, total and self time, and the mean. *)
let table t ~ops =
  let rows = Hashtbl.fold (fun name a acc -> (name, a) :: acc) t.aggs [] in
  let rows = List.sort (fun (_, a) (_, b) -> compare b.total_ns a.total_ns) rows in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-24s %10s %12s %12s %12s %10s\n" "span" "count" "total_ms" "self_ms" "mean_ms"
    "per_op";
  List.iter
    (fun (name, a) ->
      Printf.bprintf b "%-24s %10d %12.3f %12.3f %12.4f %10.3f\n" name a.count
        (float_of_int a.total_ns /. 1e6)
        (float_of_int a.self_ns /. 1e6)
        (float_of_int a.total_ns /. float_of_int (max 1 a.count) /. 1e6)
        (float_of_int a.count /. float_of_int (max 1 ops)))
    rows;
  Buffer.contents b

(* Wrap a deadline-search probe (the [deadline:int -> schedule option]
   closure [Algo.prepare] returns): each call is a ["deadline.probe"] span,
   and the time of the probes that find no schedule is also added to
   ["deadline.probe.failed"]. *)
let probe tr f ~deadline =
  match tr with
  | None -> f ~deadline
  | Some t -> (
      enter t "deadline.probe";
      match f ~deadline with
      | r ->
          let dur = exit t in
          if Option.is_none r then add t "deadline.probe.failed" dur;
          r
      | exception e ->
          ignore (exit t);
          raise e)

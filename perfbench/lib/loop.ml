(* The closed loop: one client issues operation [i + 1] only after
   operation [i] has completed. *)

type stop =
  | Seconds of float  (** run until this much wall time has passed *)
  | Ops of int  (** run exactly this many operations *)

type result = {
  ops : int;  (** completed operations *)
  wall_ns : int;  (** wall time of the timed phase *)
  lat_ns : int array;  (** per-operation latency, in operation order *)
  end_ns : int array;
      (** per operation, the wall time from the start of the timed phase
          to the end of its client bookkeeping *)
  mid : int * int;
      (** under [Seconds s]: the first boundary index reached after [s / 2]
          seconds, and the wall time until then; [(ops, wall_ns)] otherwise *)
}

(* [run ~stop ~prepare ~finish op] calls [prepare i], [op i] and
   [finish i] for each operation index [i], timing each [op i] from
   outside; [prepare] and [finish] (the client's own bookkeeping) count in
   the wall time but not in the latency.  Under [Seconds], the loop stops
   only at an index [i] with [boundary i], so a workload can keep its
   operation mix whole: at the boundary nearest the time, taking the next
   stretch to be as long as the one since the previous boundary. *)
let run ~stop ?(boundary = fun _ -> true) ?(prepare = fun _ -> ()) ?(finish = fun _ -> ()) op =
  let lat = Vec.create () and ends = Vec.create () in
  let t0 = Clock.now_ns () in
  let t_end = ref t0 and t_boundary = ref t0 in
  let continue i =
    match stop with
    | Ops n -> i < n
    | Seconds s ->
        (not (boundary i))
        || i = 0
        ||
        let go = float_of_int (!t_end - t0 + ((!t_end - !t_boundary) / 2)) <= s *. 1e9 in
        t_boundary := !t_end;
        go
  in
  let i = ref 0 and mid = ref None in
  while continue !i do
    (match (stop, !mid) with
    | Seconds s, None when boundary !i && float_of_int (!t_end - t0) >= s *. 0.5e9 ->
        mid := Some (!i, !t_end - t0)
    | _ -> ());
    prepare !i;
    let a = Clock.now_ns () in
    op !i;
    let b = Clock.now_ns () in
    Vec.push lat (b - a);
    finish !i;
    t_end := Clock.now_ns ();
    Vec.push ends (!t_end - t0);
    incr i
  done;
  let wall_ns = !t_end - t0 in
  {
    ops = !i;
    wall_ns;
    lat_ns = Vec.to_array lat;
    end_ns = Vec.to_array ends;
    mid = Option.value !mid ~default:(!i, wall_ns);
  }

(* Chained MD5 over chunks, so a long run's outputs are hashed without
   materialising them as one string. *)
module Digest_acc = struct
  type t = { buf : Buffer.t; mutable h : string }

  let create () = { buf = Buffer.create 65536; h = "" }

  let flush d =
    d.h <- Digest.string (d.h ^ Digest.string (Buffer.contents d.buf));
    Buffer.clear d.buf

  let add_string d s =
    Buffer.add_string d.buf s;
    Buffer.add_char d.buf '\n';
    if Buffer.length d.buf >= 65536 then flush d

  let hex d =
    flush d;
    Digest.to_hex d.h
end

(* Busy area (processor-seconds reserved) of a calendar over [0, until). *)
let busy_area cal ~until =
  let procs = Mp_platform.Calendar.procs cal in
  Mp_platform.Calendar.fold_segments cal ~from_:0 ~until ~init:0
    ~f:(fun acc ~start ~finish ~avail -> acc + ((procs - avail) * (finish - start)))

let area (r : Mp_platform.Reservation.t) = r.procs * (r.finish - r.start)

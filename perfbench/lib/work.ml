(* What every workload provides to [Bench], which runs it. *)

type mode = {
  trace : Trace.t option;  (** record the benchmark's spans into this *)
  reroute : bool;
      (** answer deadline submits through [Algo.prepare] and
          [Deadline.tightest] called by the benchmark itself, so that
          every deadline probe is a span; outputs must not change *)
}

let plain = { trace = None; reroute = false }

module type S = sig
  val name : string

  type state
  type outputs

  val setup : seed:int -> state
  (** Generate the inputs from the seed and preload the program.  A state
      is consumed by one {!run}. *)

  val segments : int
  (** Set-ups in one untraced run; the run's seconds are shared out
      between them.  The same seed gives the same operations after each
      set-up. *)

  val window : int
  (** Operations per throughput window: the untraced [ops_per_s] takes
      each window's least wall time over the rounds.  Divides the period. *)

  val period : state -> int option
  (** [Some p] when operation [i + p] repeats operation [i] on the same
      program state, so a run replays rounds of [p] operations; [None]
      when the state moves on and only a fresh set-up repeats operations. *)

  val run : state -> mode -> Loop.stop -> Loop.result * outputs

  val errors : outputs -> int
  (** Operations the program answered with an error. *)

  val check : state -> outputs -> string list
  (** Violations found by checking the outputs, one line each; run
      outside the timed phase.  Each counts as a failed operation. *)

  val digest : ?upto:int -> outputs -> string
  (** Hash of the responses and schedules of the first [upto] operations
      (default all). *)

  val layers : state -> outputs -> (string * float) list
  (** Per-layer values this workload measures itself, by metric name: in
      its set-up, or after its run (e.g. direct calendar queries). *)
end

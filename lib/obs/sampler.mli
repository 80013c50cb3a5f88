(** Periodic timeseries sampler over a {!Sim.Engine}.

    Probes are registered at setup time ([unit -> float] closures); on
    every tick the sampler appends the tick's time once to its own
    {!Series.Grid.t}, then {!Series.record}s one value per probe, in
    registration order, into that probe's series.  All its series
    share the grid and store only change-points (see {!Series}), so a
    probe whose value holds costs a comparison per tick and no
    storage.  Probes and hooks live in growable arrays; apart from the
    grid's doubling, a tick allocates only what the probe closures
    do.  Driven by
    {!Sim.Engine.schedule_periodic}, so sampling interleaves correctly
    with the simulation's own events.

    Hooks run before the probes on each tick — use them to advance
    derived state (e.g. phase-occupancy accumulators) exactly once per
    sample.  A probe registered after {!start} (or by a hook) gets its
    first point at the next tick the probes run.  Its series is
    sampler-owned: {!Series.add} refuses it. *)

type t

val create :
  eng:Sim.Engine.t -> interval:float -> ?clock:(unit -> float) -> unit -> t
(** [clock] (a wall clock, e.g. [Unix.gettimeofday]) turns on
    self-observation: every {!sample_now} is timed and accumulated
    into {!probe_seconds}, making the sampler's own overhead a
    first-class measurement.  Without it, sampling is untimed and
    {!probe_seconds} stays [0.].
    @raise Invalid_argument if [interval <= 0.]. *)

val interval : t -> float

val track : t -> ?labels:Metric.labels -> string -> (unit -> float) -> Series.t
(** Register a probe; returns its series.  Probes fire in registration
    order. *)

val on_sample : t -> (unit -> unit) -> unit
(** Register a pre-probe hook. *)

val sample_now : t -> unit
(** Take one sample at the engine's current time immediately. *)

val start : ?stop:(unit -> bool) -> t -> unit
(** Take a baseline sample now, then one every [interval] until [stop]
    returns [true] (one final sample is taken at the stopping tick) or
    {!stop} is called.
    @raise Invalid_argument if already started. *)

val stop : t -> unit
(** Cancel the periodic tick (see {!Sim.Engine.cancel_periodic});
    idempotent, no-op before [start].  No further samples are taken. *)

val running : t -> bool
(** [true] between [start] and whichever comes first of [stop] and the
    stop predicate firing. *)

val series : t -> Series.t list
(** Registration order. *)

val find : t -> ?labels:Metric.labels -> string -> Series.t option
val ticks : t -> int

val probe_seconds : t -> float
(** Cumulative wall-clock seconds spent inside {!sample_now} — [0.]
    unless a [clock] was given to {!create}. *)

val self_observing : t -> bool
(** [true] iff a [clock] was given to {!create}. *)

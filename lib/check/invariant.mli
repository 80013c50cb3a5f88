(** Runtime invariant checkers over the simulator's tap points.

    A collector accumulates violations; checkers are either streaming
    trace handlers (attach them to a {!Chunksim.Trace} with {!attach},
    or to an [Obs] sink chain with {!sink}) or periodic probes driven
    by {!probe}.  [Inrpp.Protocol.run ?check] wires all of them up for
    a protocol run; the differential harness and the soak test build
    on the same pieces.

    A clean run ends with {!ok} true; {!report} renders the retained
    violations for test failure messages. *)

type violation = { time : float; checker : string; detail : string }

type t

val create : ?limit:int -> unit -> t
(** [limit] (default 64) bounds the retained violation list; the
    total count keeps incrementing past it. *)

val violate : t -> time:float -> checker:string -> string -> unit
val total : t -> int

val on_violation : t -> (violation -> unit) -> unit
(** Register a callback fired on {e every} violation, including ones
    past [limit] — the hook the flight recorder ({!Obs.Recorder})
    dumps from.  At most one callback; the last registration wins. *)

val violations : t -> violation list
(** Oldest first, at most [limit]. *)

val ok : t -> bool
val report : t -> string

val add_probe : t -> (float -> unit) -> unit
(** Register a check to run on every {!probe} (called with the probe
    time). *)

val probe : t -> time:float -> unit
(** Run all registered probes.  The protocol layer calls this from its
    existing estimator tick, so probing adds no engine events. *)

(** {1 Streaming trace checkers}

    Each constructor returns a handler closed over its own state;
    route it to a trace directly ({!attach}) or through the
    observability layer ({!sink}). *)

val phase_legality : t -> float -> Chunksim.Trace.event -> unit
(** Interface phase machine (DESIGN §1): phases are exactly
    push-data / detour / backpressure, every recorded transition moves
    to a {e different} legal successor (self-transitions must not be
    recorded), and the implicit initial state is push-data.  A
    [Node_fault] crash resets the node's interfaces to push-data (a
    restarted router starts from scratch). *)

val bp_ordering : t -> float -> Chunksim.Trace.event -> unit
(** Back-pressure propagation ordering: per (node, flow) at most two
    engages outstanding (local + relayed) and never a release without
    an outstanding engage.  A [Node_fault] crash clears the node's
    balances — a crash wipes back-pressure flags without emitting
    releases. *)

val attach : Chunksim.Trace.t -> (float -> Chunksim.Trace.event -> unit) -> unit
(** [attach trace h] registers [h] as an [on_record] tap. *)

val sink : (float -> Chunksim.Trace.event -> unit) -> Obs.Sink.t
(** Wrap a checker handler as an observability sink so it can ride an
    [Obs.Observer]'s sink list. *)

val custody_ledger : t -> name:string -> (unit -> int * int) -> unit
(** [custody_ledger c ~name read] registers a probe asserting the two
    custody accountings agree: [read ()] returns [(router custody
    packet count, cache custody region chunk count)]. *)

(** {1 Chunk conservation}

    sent = delivered + in custody, per chunk id and in aggregate at
    quiescence; destroyed copies (faults, wire loss) are attributed
    per chunk and queue drops relax the aggregate to an inequality. *)

module Conservation : sig
  type coll = t
  type t

  val create : coll -> t

  val handler : t -> float -> Chunksim.Trace.event -> unit
  (** Attach to the trace: counts [Cache_hit] events as synthesised
      pushes (a cache hit conjures a fresh copy of the chunk). *)

  val note_push : t -> flow:int -> idx:int -> unit
  (** A chunk entered the network (sender origination). *)

  val note_delivery : t -> time:float -> flow:int -> idx:int -> unit
  (** A chunk reached its consumer.  Immediately flags a chunk
      delivered more times than it was sent (duplicate delivery) or
      never sent at all. *)

  val note_destroyed : t -> time:float -> flow:int -> idx:int -> unit
  (** A chunk copy was destroyed: killed on a downed link, flushed
      from a queue, wiped from custody, swallowed by a dead node, or
      lost on the wire.  Immediately flags a chunk with more copies
      delivered + destroyed than were ever sent. *)

  val pushes : t -> int
  val deliveries : t -> int

  val finish :
    t -> time:float -> quiescent:bool -> in_custody:int -> drops:int -> unit
  (** End-of-run aggregate check.  [quiescent] means every flow
      completed (no data in flight); [in_custody] is the chunk count
      still held across all routers; [drops] counts queue-full
      refusals, which are not attributed per chunk.  With no drops
      and nothing destroyed, sent must equal delivered + in custody;
      otherwise delivered + in custody + destroyed must not exceed
      sent. *)
end

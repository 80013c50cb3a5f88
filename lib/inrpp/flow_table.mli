(** Per-flow forwarding state, compacted.

    The router keeps one entry per flow crossing it: next hops for
    data and requests, five back-pressure/fail-over flags and the
    flowlet pin.  Everything that belongs to an outgoing link rather
    than a flow (interface, estimator, phase, detour candidates) lives
    in the router's port table, not here.  This module owns the
    per-flow state behind a slot-indexed interface with two
    interchangeable layouts:

    - [`Soa] (default): int-indexed struct-of-arrays — packed int
      fields for identity and next hops (link {e ids}, [-1] = none), a
      one-byte flag bitfield per slot, unboxed float timestamps for
      the flowlet clock, and free-list recycling of released slots.
      Steady-state cost is a few dozen bytes per flow, measured and
      frozen by the [flows_1m] benchmark.
    - [`Legacy]: the PR-5 record-per-flow layout (hashtable of mutable
      records plus a dense mirror array indexed by flow id), kept as
      the differential-testing reference.

    Both layouts drive iteration off a stdlib [Hashtbl] fed the same
    key sequence, so {!iter} order — observable through the drain and
    fault loops — is identical between them.  The 50-seed
    SoA-vs-legacy sweep in [test/test_validation.ml] pins this.

    Next hops are stored as link ids rather than [Link.t] to keep a
    slot at two words; resolve through [Topology.Graph.link] (O(1),
    returns the canonical physical link). *)

type t

val create : store:[ `Soa | `Legacy ] -> gap:float -> unit -> t
(** [gap] is the flowlet idle gap (see {!flowlet_choose}).
    @raise Invalid_argument if [gap < 0]. *)

val find : t -> int -> int
(** [find t flow] is the flow's slot, or [-1] when not installed. *)

val install :
  t -> flow:int -> content:int -> data_link:int -> req_link:int -> int
(** Install (or reinstall) a flow; returns its slot.  A reinstall
    keeps the slot and the flowlet pin but resets links and flags —
    exactly the legacy [Hashtbl.replace] semantics, where the separate
    flowlet table survived reinstalls.
    @raise Invalid_argument if [flow < 0]. *)

val release : t -> flow:int -> unit
(** Free the flow's slot onto the free list (counted in {!recycled});
    a later {!install} may hand the slot to a different flow.  No-op
    when the flow is not installed. *)

val flow_of : t -> int -> int
(** Inverse of {!find} for live slots. *)

val content : t -> int -> int

val data_link : t -> int -> int
(** Next-hop link id towards the consumer; [-1] = none (consumer node). *)

val req_link : t -> int -> int
(** Next-hop link id towards the producer; [-1] = none (producer node). *)

val set_links : t -> int -> data_link:int -> req_link:int -> unit

val bp_local : t -> int -> bool
val set_bp_local : t -> int -> bool -> unit
val bp_forwarded : t -> int -> bool
val set_bp_forwarded : t -> int -> bool -> unit
val detour_override : t -> int -> bool
val set_detour_override : t -> int -> bool -> unit
val bp_outage : t -> int -> bool
val set_bp_outage : t -> int -> bool -> unit
val failed_over : t -> int -> bool
val set_failed_over : t -> int -> bool -> unit

val flowlet_choose :
  t -> int -> now:float -> preferred:Flowlet.route -> Flowlet.route
(** Per-slot flowlet pinning with {!Flowlet.choose} semantics: the
    first call pins [preferred]; later calls return the pin, replacing
    it with [preferred] only after an idle gap longer than [gap]. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f flow slot] for every live entry, in the
    layout-independent hashtable order (see module doc). *)

val live : t -> int
(** Installed entries right now. *)

val peak : t -> int
(** High-water mark of {!live} over the table's lifetime. *)

val recycled : t -> int
(** Slots returned to the free list by {!release}. *)

val approx_bytes : t -> int
(** Estimated retained heap for the per-flow state (arrays at current
    capacity plus hashtable overhead; the legacy layout counts its
    records).  An accounting estimate for gauges and reports — the
    frozen bytes/flow figure comes from the [flows_1m] benchmark's
    live-words measurement, not from this. *)

(** Per-flow forwarding state, compacted.

    The router keeps one entry per flow crossing it: next hops for
    data and requests, five back-pressure/fail-over flags and the
    flowlet pin.  Everything that belongs to an outgoing link rather
    than a flow (interface, estimator, phase, detour candidates) lives
    in the router's port table, not here.

    The layout is an int-indexed struct-of-arrays: packed int fields
    for identity and next hops (link {e ids}, [-1] = none), a one-byte
    flag bitfield per slot, unboxed float timestamps for the flowlet
    clock, and free-list recycling of released slots.  Steady-state
    cost is a few dozen bytes per flow, measured and frozen by the
    [flows_1m] benchmark.

    Iteration runs off a stdlib [Hashtbl] keyed by flow id, so {!iter}
    order — observable through the drain and fault loops — depends
    only on the install/release key sequence.  The reference-model
    property in [test/test_inrpp.ml] pins every read, the iteration
    order and the counters against a plain hashtable of per-flow
    records.

    Next hops are stored as link ids rather than [Link.t] to keep a
    slot at two words; resolve through [Topology.Graph.link] (O(1),
    returns the canonical physical link). *)

(** A flowlet's pinned route (see {!flowlet_choose}). *)
type route =
  | Primary  (** the flow's primary next hop *)
  | Via of int
      (** a detour whose first hop is this neighbour {e node id} (the
          router's detour candidate [dc_via]) *)

type t

val create : gap:float -> unit -> t
(** [gap] is the flowlet idle gap (see {!flowlet_choose}).
    @raise Invalid_argument if [gap < 0]. *)

val find : t -> int -> int
(** [find t flow] is the flow's slot, or [-1] when not installed. *)

val install :
  t -> flow:int -> content:int -> data_link:int -> req_link:int -> int
(** Install (or reinstall) a flow; returns its slot.  A reinstall
    keeps the slot and the flowlet pin but resets links and flags.
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

val flowlet_choose : t -> int -> now:float -> preferred:route -> route
(** Flowlet pinning (Sinha et al., cited by the paper for detour
    granularity): a flow's packets within one burst stay on one route
    to avoid reordering.  The first call on a slot pins [preferred];
    later calls return the pin, replacing it with [preferred] only
    after an idle gap longer than [gap].  Always updates the slot's
    last-packet time.  {!release} forgets the pin; a reinstall keeps
    it. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f flow slot] for every live entry, in hashtable
    order (see module doc). *)

val live : t -> int
(** Installed entries right now. *)

val peak : t -> int
(** High-water mark of {!live} over the table's lifetime. *)

val recycled : t -> int
(** Slots returned to the free list by {!release}. *)

val approx_bytes : t -> int
(** Estimated retained heap for the per-flow state (arrays at current
    capacity plus hashtable overhead).  An accounting estimate for
    gauges and reports — the frozen bytes/flow figure comes from the
    [flows_1m] benchmark's live-words measurement, not from this. *)

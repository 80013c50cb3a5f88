(** Directed multigraph with dense node and link identifiers.

    This is the substrate every simulator in the repository builds on.
    Graphs are immutable once built: construct one with {!Builder},
    then query it.  Node ids are [0 .. node_count - 1] and link ids are
    [0 .. link_count - 1], so callers can keep per-node / per-link
    state in flat arrays. *)

type t

(** {1 Construction} *)

module Builder : sig
  type graph = t
  type t

  val create : unit -> t

  val add_node : t -> ?role:Node.role -> string -> Node.id
  (** [add_node b name] registers a node and returns its dense id. *)

  val add_link :
    t -> ?capacity:float -> ?delay:float -> Node.id -> Node.id -> unit
  (** [add_link b u v] adds a directed link [u -> v].
      [capacity] defaults to [1e9] bps, [delay] to [1e-3] s.
      @raise Invalid_argument on unknown endpoints or self-loop. *)

  val add_edge :
    t -> ?capacity:float -> ?delay:float -> Node.id -> Node.id -> unit
  (** [add_edge b u v] adds both directions [u -> v] and [v -> u]. *)

  val build : t -> graph
  (** Freeze into an immutable graph.
      @raise Invalid_argument if a duplicate directed link exists. *)
end

val of_edges :
  ?capacity:float -> ?delay:float -> int -> (int * int) list -> t
(** [of_edges n pairs] builds an undirected graph on [n] anonymous
    nodes (named ["n<i>"]) with an edge (both directions) per pair.
    Convenient in tests and builders. *)

(** {1 Queries} *)

val node_count : t -> int
val link_count : t -> int
(** Number of {e directed} links. *)

val node : t -> Node.id -> Node.t
val link : t -> int -> Link.t
val nodes : t -> Node.t list
val links : t -> Link.t list

val out_links : t -> Node.id -> Link.t list
val in_links : t -> Node.id -> Link.t list
val succs : t -> Node.id -> Node.id list
val preds : t -> Node.id -> Node.id list
val out_degree : t -> Node.id -> int

val out_index : t -> int -> int
(** [out_index g id] is the position of link [id] in
    [out_links g (link g id).src], so per-node state kept in an array
    ordered like the out-list is found in O(1). *)

val find_link : t -> Node.id -> Node.id -> Link.t option
(** First directed link [u -> v] if any. *)

val reverse : t -> Link.t -> Link.t option
(** The opposite direction of the same physical link, when present. *)

val undirected_links : t -> Link.t list
(** One representative (the lower-id direction) per physical link.
    Purely directed links (no reverse) are included as themselves. *)

val total_capacity : t -> float
(** Sum of directed link capacities, bits per second. *)

val is_connected : t -> bool
(** Weak connectivity over the underlying undirected structure. *)

val fold_links : (Link.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter_links : (Link.t -> unit) -> t -> unit
val fold_nodes : (Node.t -> 'a -> 'a) -> t -> 'a -> 'a

val pp : Format.formatter -> t -> unit
(** Summary line: node/link counts and capacity. *)

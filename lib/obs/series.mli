(** Append-only numeric timeseries of [(time, value)] points, stored
    as change-points on a time grid.

    A {!Grid.t} holds each sample time once.  A series stores a
    [(tick, value)] point only at the grid ticks where its value's bit
    pattern ([Int64.bits_of_float], not [=]) differs from its previous
    point, so [0.]/[-0.] and NaN payloads are kept exactly; a value
    that holds for a thousand ticks costs one point.  The read API
    below ({!length}, {!get}, {!iter}, {!last}, {!to_list},
    {!max_value}) expands the change-points back onto the grid: it
    sees one point per recorded tick, bit-identical to what was
    recorded.

    A {!Sampler} owns one grid that all its series share ({!on_grid}):
    each tick appends its time to the grid once, then {!record}s every
    probe's value.  A series made with {!create} owns a private grid
    and is filled with {!add}.  Exported by {!Export}. *)

(** A shared, append-only sequence of sample times. *)
module Grid : sig
  type t

  val create : unit -> t

  val push : t -> float -> unit
  (** Append one tick.
      @raise Invalid_argument if the time precedes the last tick. *)
end

type t

val create : ?labels:Metric.labels -> string -> t
(** A series with its own private grid, filled by {!add}. *)

val on_grid : Grid.t -> ?labels:Metric.labels -> string -> t
(** A series on a shared grid, filled by {!record}; its first point is
    the first tick it is recorded at.  {!add} refuses it. *)

val name : t -> string
val labels : t -> Metric.labels

val add : t -> time:float -> float -> unit
(** Append a point to a series made by {!create}.
    @raise Invalid_argument if [time] precedes the last point, or if
    the series is on a shared grid (see {!on_grid}). *)

val record : t -> float -> unit
(** Record the value at the grid's latest tick: stores a change-point
    only when the bit pattern differs from the previous point.
    Every tick from a series' first must be recorded, once, for the
    dense expansion to be the recorded sequence.
    @raise Invalid_argument if the grid has no tick after the last
    one recorded. *)

val length : t -> int

val get : t -> int -> float * float
(** [(time, value)] of the i-th point, oldest first (O(log c) in the
    number of change-points c).
    @raise Invalid_argument out of bounds. *)

val last : t -> (float * float) option
val iter : (time:float -> float -> unit) -> t -> unit
val to_list : t -> (float * float) list

val max_value : t -> float
(** [neg_infinity] when empty. *)

val change_points : t -> int
(** Points actually stored; [length t] counts the dense expansion. *)

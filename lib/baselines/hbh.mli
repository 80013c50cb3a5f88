(** Hop-by-hop interest shaping (Rozhnova & Fdida, the paper's
    reference [45]).

    Routers pace the {e request} stream per flow so the returning data
    matches each flow's fair share of the data link the requests'
    answers will traverse — congestion control without e2e probing,
    but still single-path and bottleneck-bound.  The paper's §4
    critique, which this implementation makes measurable: it needs
    per-flow request queues at every hop and transmits at the path's
    slowest link ({e global stability}), so it cannot exploit detours
    or in-network storage.

    Lossless like INRPP (data is never sent faster than it can
    drain), but no faster than the bottleneck. *)

val run :
  ?chunk_bits:float -> ?queue_bits:float -> ?horizon:float ->
  ?obs:Obs.Observer.t -> ?faults:Fault.Schedule.t -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> Run_result.t
(** Defaults as in {!Harness.start}.  HBH has no end-to-end loss
    recovery and never retransmits, so [retransmissions] is always 0.
    [obs] adds a sampled per-flow [chunks_received] series to what
    {!Harness.start} registers, labelled [("protocol", "HBH")]. *)

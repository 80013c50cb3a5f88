(** Single-path end-to-end AIMD transport — the TCP-like comparator
    the paper argues against (§2.1).

    Receiver-driven interest control (one request per chunk) with an
    AIMD window, slow start, RTO loss recovery; plain drop-tail
    forwarding; shortest single path.

    This module is deliberately a parameter-only preset: all transport
    behaviour (windows, RTO, striping, store-and-forward plumbing,
    observability) lives in {!Puller}/{!Forwarder}/{!Harness}, shared
    with {!Mptcp} — AIMD {e is} the single-path uncoupled point in
    that family, so there is nothing protocol-specific to implement
    here beyond fixing [coupled = false] and [paths_per_flow = 1]. *)

val run :
  ?chunk_bits:float -> ?queue_bits:float -> ?horizon:float ->
  ?obs:Obs.Observer.t -> ?faults:Fault.Schedule.t -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> Run_result.t
(** Defaults as in {!Harness.start}; [obs] is forwarded to
    {!Harness.run_pull}, so an instrumented AIMD run emits the same
    metric and series names (labelled [protocol=AIMD]) as every other
    baseline. *)

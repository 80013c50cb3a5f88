(** RCP-style processor-sharing rate control (Dukkipati & McKeown,
    the paper's reference [14]).

    Receivers pace requests at an explicitly assigned fair rate
    instead of probing with a window.  The rate is the max-min fair
    share of the flow's fixed path among currently active flows,
    recomputed periodically — an idealisation of RCP's router
    feedback (we read the share from a fluid computation rather than
    carrying a rate field hop by hop; see DESIGN.md).  Single path,
    no detours, no custody. *)

val run :
  ?chunk_bits:float -> ?queue_bits:float -> ?horizon:float ->
  ?update_interval:float -> ?obs:Obs.Observer.t -> ?faults:Fault.Schedule.t -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> Run_result.t
(** Defaults as in {!Harness.start}; [update_interval] (default 50 ms)
    is the rate-feedback period.  [obs] adds per-flow
    [rcp_retransmissions_total] metrics and sampled [rcp_rate_bps] and
    [chunks_received] series to what {!Harness.start} registers, all
    labelled [("protocol", "RCP")]. *)

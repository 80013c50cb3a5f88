(** Multipath coupled-AIMD transport — the e2eRPP comparator (§2.2).

    Up to [subflows] link-disjoint end-to-end paths per flow, each
    with its own window, coupled by MPTCP's linked increase so the
    aggregate is no more aggressive than one TCP.  Resource pooling
    across {e end-to-end} paths only: no in-network detours, no
    custody.

    Like {!Aimd}, this is a parameter-only preset over
    {!Harness.run_pull}: the coupled linked-increase lives in
    {!Puller} (keyed on [coupled = true]), path diversity in
    {!Harness.start}'s disjoint-path setup. *)

val run :
  ?subflows:int -> ?chunk_bits:float -> ?queue_bits:float ->
  ?horizon:float -> ?obs:Obs.Observer.t -> ?faults:Fault.Schedule.t -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> Run_result.t
(** [subflows] defaults to 2 (fewer when the topology offers fewer
    disjoint paths).  [obs] is forwarded to {!Harness.run_pull}, so an
    instrumented MPTCP run emits the same metric and series names
    (labelled [protocol=MPTCP]) as the other baselines. *)

(** The per-run scaffold every baseline transport shares.

    {!start} builds the store-and-forward network (up to
    [paths_per_flow] link-disjoint paths per flow, one wire flow id per
    subflow), applies the fault schedule, answers requests at each
    flow's producer and, when observed, registers the receiver-side
    histograms and the network-level instrumentation.  A runner adds
    only its transport logic: how consumers request chunks
    ({!on_data} delivers the data), when a flow completes
    ({!complete}), its own per-flow series ({!observe_flows}), and
    then {!finish}es the run. *)

type state
(** Completion accounting and instruments, private to the scaffold. *)

type run = {
  eng : Sim.Engine.t;
  net : Chunksim.Net.t;
  forwarders : Forwarder.t array;
  specs : Inrpp.Protocol.flow_spec array;
  paths : Topology.Path.t array array;  (** [paths.(flow).(subflow)] *)
  wire_ids : int array array;           (** matching wire flow ids *)
  chunk_bits : float;
  horizon : float;
  state : state;
}

val start :
  protocol:string -> paths_per_flow:int -> ?chunk_bits:float ->
  ?queue_bits:float -> ?horizon:float -> ?obs:Obs.Observer.t ->
  ?faults:Fault.Schedule.t -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> run
(** Defaults: 10 kB chunks, 64-chunk queues, 120 s horizon.

    Every node runs a plain {!Forwarder}; a request for chunk [nc] that
    reaches its producer is answered with that chunk on the requesting
    wire when [nc] is below the flow's length.  [faults] are taken
    mechanically (interfaces flip, crashed nodes destroy arriving
    packets, bursts drop requests): the baselines have no in-network
    recovery, so their response to faults is whatever their
    end-to-end loss recovery does.

    [obs] registers, all labelled [("protocol", protocol)]: per-flow
    [chunk_queueing_delay_seconds] histograms (arrival time minus the
    send timestamp minus the subflow path's unloaded latency), the
    [flow_fct_seconds] histogram, per-node [forwarder_drops_total],
    per-link [iface_tx_bits_total] / [iface_drops_total] /
    [iface_queue_bits] callback metrics, and sampled per-link
    [iface_queue_bits] / [iface_utilisation] series.  It installs the
    observer's sampler (at [horizon /. 200.] by default) but leaves it
    stopped until {!observe_flows}.  The baseline stack has no packet
    trace, so the observer's sinks are not attached.
    @raise Invalid_argument if [paths_per_flow < 1], there are no flows
    or a flow is unroutable. *)

val on_data :
  run -> (flow:int -> subflow:int -> Chunksim.Packet.t -> unit) -> unit
(** Deliver each data packet that reaches its consumer, after observing
    its queueing delay. *)

val complete : run -> int -> fct:float -> unit
(** [complete r i ~fct] records flow [i]'s completion time; the run
    finishes when the last flow completes. *)

val all_complete : run -> bool

val observe_flows :
  run -> received:(int -> int) ->
  (int -> metric:(string -> (unit -> float) -> unit) ->
   series:(string -> (unit -> float) -> unit) -> unit) -> unit
(** When observed: for each flow [i] in order, [f i ~metric ~series]
    registers the runner's own callback metrics and sampled series,
    labelled with the protocol and [("flow", i)]; a sampled
    [chunks_received] series reading [received i] follows.  Then starts
    the sampler, which stops once every flow completes.  A no-op
    otherwise. *)

val finish : run -> retransmissions:(unit -> int) -> Run_result.t
(** Run the engine to the horizon and summarise; [retransmissions] is
    read after the run.  [sim_time] is when the last flow completed,
    or the horizon. *)

val run_pull :
  protocol:string -> coupled:bool -> paths_per_flow:int ->
  ?chunk_bits:float -> ?queue_bits:float -> ?horizon:float ->
  ?obs:Obs.Observer.t -> ?faults:Fault.Schedule.t -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> Run_result.t
(** Window-driven pull transport over the scaffold (see {!Puller}); the
    engine of both {!Aimd} and {!Mptcp}.  Defaults as in {!start}.

    [obs] adds per-flow [puller_retransmissions_total],
    [puller_loss_events_total] and [puller_chunks_received] callback
    metrics and a sampled per-flow [chunks_received] series to what
    {!start} registers. *)

module Graph = Topology.Graph
module Path = Topology.Path
module Net = Chunksim.Net
module Packet = Chunksim.Packet

type instruments = {
  registry : Obs.Metric.t;
  sampler : Obs.Sampler.t;
  fct_hist : Obs.Metric.histogram;
  qdelay : (float * Obs.Metric.histogram) array;
      (* by wire: the subflow path's unloaded latency and its flow's
         queueing-delay histogram *)
}

type state = {
  protocol : string;
  fcts : float option array;
  mutable completed : int;
  mutable finished_at : float option;
  owner : (int * int) array;  (* by wire: (flow, subflow) *)
  obs : instruments option;
}

type run = {
  eng : Sim.Engine.t;
  net : Chunksim.Net.t;
  forwarders : Forwarder.t array;
  specs : Inrpp.Protocol.flow_spec array;
  paths : Topology.Path.t array array;
  wire_ids : int array array;
  chunk_bits : float;
  horizon : float;
  state : state;
}

let install_path forwarders g ~wire (path : Path.t) =
  let nodes = Array.of_list path.Path.nodes in
  let links = Array.of_list path.Path.links in
  let n = Array.length nodes in
  for k = 0 to n - 1 do
    let data_link = if k < n - 1 then Some links.(k) else None in
    let req_link =
      if k > 0 then Graph.find_link g nodes.(k) nodes.(k - 1) else None
    in
    Forwarder.install_flow forwarders.(nodes.(k)) ~flow:wire ~data_link
      ~req_link
  done

(* up to [paths_per_flow] link-disjoint paths per flow, one fresh wire
   id per path *)
let route_flows forwarders g ~paths_per_flow specs =
  let next_wire = ref 0 in
  let route (spec : Inrpp.Protocol.flow_spec) =
    match
      Topology.Yen.k_disjoint g ~k:paths_per_flow spec.Inrpp.Protocol.src
        spec.Inrpp.Protocol.dst
    with
    | [] ->
      invalid_arg
        (Printf.sprintf "Harness.start: flow %d -> %d unroutable"
           spec.Inrpp.Protocol.src spec.Inrpp.Protocol.dst)
    | ps ->
      let ps = Array.of_list ps in
      let wires =
        Array.map
          (fun p ->
            let wire = !next_wire in
            incr next_wire;
            install_path forwarders g ~wire p;
            wire)
          ps
      in
      (ps, wires)
  in
  let flows = Array.map route specs in
  (Array.map fst flows, Array.map snd flows)

(* unloaded latency of a path: propagation plus one serialisation per
   hop — the floor against which receivers measure queueing delay *)
let path_base_delay ~chunk_bits (path : Path.t) =
  List.fold_left
    (fun acc (l : Topology.Link.t) ->
      acc +. l.Topology.Link.delay +. (chunk_bits /. l.Topology.Link.capacity))
    0. path.Path.links

(* Receiver-side histograms first (per-flow queueing delay, then FCT),
   then the network-level instrumentation: callback metrics on the
   forwarders and interfaces and sampled per-interface series.  The
   sampler stays stopped until the runner has added its flow series. *)
let instrument o ~protocol ~horizon ~chunk_bits ~eng ~net ~forwarders ~paths
    ~owner =
  let registry = Obs.Observer.registry o in
  let proto_label = ("protocol", protocol) in
  let flow_hists =
    Array.mapi
      (fun i _ ->
        Obs.Metric.histogram registry
          ~labels:[ proto_label; ("flow", string_of_int i) ]
          ~lo:0. ~hi:10. ~bins:50 "chunk_queueing_delay_seconds")
      paths
  in
  let qdelay =
    Array.map
      (fun (i, j) ->
        (path_base_delay ~chunk_bits paths.(i).(j), flow_hists.(i)))
      owner
  in
  let fct_hist =
    Obs.Metric.histogram registry ~labels:[ proto_label ] ~lo:0. ~hi:horizon
      ~bins:64 "flow_fct_seconds"
  in
  Array.iteri
    (fun node fwd ->
      Obs.Metric.callback registry
        ~labels:[ proto_label; ("node", string_of_int node) ]
        "forwarder_drops_total"
        (fun () -> float_of_int (Forwarder.drops fwd)))
    forwarders;
  let link_labels i =
    let l = Chunksim.Iface.link i in
    [ proto_label; ("link", string_of_int l.Topology.Link.id) ]
  in
  Net.iter_ifaces net (fun i ->
      let f name fn =
        Obs.Metric.callback registry ~labels:(link_labels i) name fn
      in
      f "iface_tx_bits_total" (fun () -> Chunksim.Iface.tx_bits i);
      f "iface_drops_total" (fun () ->
          float_of_int (Chunksim.Iface.drops i));
      f "iface_queue_bits" (fun () -> Chunksim.Iface.queue_occupancy i));
  let sampler =
    Obs.Observer.install_sampler o ~eng ~default_interval:(horizon /. 200.)
  in
  Net.iter_ifaces net (fun i ->
      let track name fn =
        ignore (Obs.Sampler.track sampler ~labels:(link_labels i) name fn)
      in
      track "iface_queue_bits" (fun () -> Chunksim.Iface.queue_occupancy i);
      track "iface_utilisation" (fun () ->
          Chunksim.Iface.utilisation i ~now:(Sim.Engine.now eng)));
  { registry; sampler; fct_hist; qdelay }

let start ~protocol ~paths_per_flow ?(chunk_bits = 10e3 *. 8.) ?queue_bits
    ?(horizon = 120.) ?obs ?faults g specs =
  if paths_per_flow < 1 then invalid_arg "Harness.start: paths_per_flow < 1";
  if specs = [] then invalid_arg "Harness.start: no flows";
  let specs = Array.of_list specs in
  let eng = Sim.Engine.create () in
  let net = Net.create ?queue_bits eng g in
  let forwarders =
    Array.init (Graph.node_count g) (fun node -> Forwarder.create ~net ~node)
  in
  let paths, wire_ids = route_flows forwarders g ~paths_per_flow specs in
  (match faults with
  | Some sched when not (Fault.Schedule.is_empty sched) ->
    ignore (Fault.Driver.install net sched : Fault.Driver.t)
  | Some _ | None -> ());
  (* wires are numbered in flow then subflow order *)
  let owner =
    Array.concat
      (Array.to_list
         (Array.mapi (fun i ws -> Array.mapi (fun j _ -> (i, j)) ws) wire_ids))
  in
  let obs =
    Option.map
      (fun o ->
        instrument o ~protocol ~horizon ~chunk_bits ~eng ~net ~forwarders
          ~paths ~owner)
      obs
  in
  (* a request that reached its producer is answered on its own wire *)
  Array.iteri
    (fun node fwd ->
      Forwarder.set_local_producer fwd (fun (p : Packet.t) ->
          match p.Packet.header with
          | Packet.Request { nc; _ } ->
            let wire = Packet.flow p in
            let spec = specs.(fst owner.(wire)) in
            if nc < spec.Inrpp.Protocol.chunks then
              Forwarder.originate_data forwarders.(spec.Inrpp.Protocol.src)
                (Packet.data ~flow:wire ~idx:nc ~born:(Sim.Engine.now eng)
                   chunk_bits)
          | Packet.Data _ | Packet.Backpressure _ -> ());
      Net.set_handler net node (Forwarder.handler fwd))
    forwarders;
  {
    eng;
    net;
    forwarders;
    specs;
    paths;
    wire_ids;
    chunk_bits;
    horizon;
    state =
      {
        protocol;
        fcts = Array.make (Array.length specs) None;
        completed = 0;
        finished_at = None;
        owner;
        obs;
      };
  }

let on_data r f =
  let st = r.state in
  Array.iter
    (fun fwd ->
      Forwarder.set_local_consumer fwd (fun (p : Packet.t) ->
          let wire = Packet.flow p in
          (match (st.obs, p.Packet.header) with
          | Some o, Packet.Data { born; _ } ->
            let base, h = o.qdelay.(wire) in
            let d = Sim.Engine.now r.eng -. born -. base in
            Obs.Metric.observe h (Float.max 0. d)
          | _ -> ());
          let flow, subflow = st.owner.(wire) in
          f ~flow ~subflow p))
    r.forwarders

let all_complete r = r.state.completed = Array.length r.specs

let complete r i ~fct =
  let st = r.state in
  st.fcts.(i) <- Some fct;
  (match st.obs with
  | Some o -> Obs.Metric.observe o.fct_hist fct
  | None -> ());
  st.completed <- st.completed + 1;
  if all_complete r then st.finished_at <- Some (Sim.Engine.now r.eng)

let observe_flows r ~received f =
  match r.state.obs with
  | None -> ()
  | Some o ->
    Array.iteri
      (fun i _ ->
        let labels =
          [ ("protocol", r.state.protocol); ("flow", string_of_int i) ]
        in
        let metric name fn = Obs.Metric.callback o.registry ~labels name fn in
        let series name fn =
          ignore (Obs.Sampler.track o.sampler ~labels name fn)
        in
        f i ~metric ~series;
        series "chunks_received" (fun () -> float_of_int (received i)))
      r.specs;
    Obs.Sampler.start ~stop:(fun () -> all_complete r) o.sampler

let finish r ~retransmissions =
  Sim.Engine.run ~until:r.horizon r.eng;
  let sim_time =
    match r.state.finished_at with
    | Some tm -> tm
    | None -> Sim.Engine.now r.eng
  in
  Run_result.make ~protocol:r.state.protocol ~fcts:r.state.fcts
    ~chunk_bits:r.chunk_bits
    ~chunks:(Array.map (fun sp -> sp.Inrpp.Protocol.chunks) r.specs)
    ~drops:
      (Array.fold_left (fun acc f -> acc + Forwarder.drops f) 0 r.forwarders)
    ~retransmissions:(retransmissions ()) ~sim_time

let run_pull ~protocol ~coupled ~paths_per_flow ?chunk_bits ?queue_bits
    ?horizon ?obs ?faults g specs =
  let r =
    start ~protocol ~paths_per_flow ?chunk_bits ?queue_bits ?horizon ?obs
      ?faults g specs
  in
  let pullers =
    Array.mapi
      (fun i (spec : Inrpp.Protocol.flow_spec) ->
        let wires = r.wire_ids.(i) in
        Puller.create ~eng:r.eng ~chunk_bits:r.chunk_bits
          ~total_chunks:spec.Inrpp.Protocol.chunks ~coupled
          ~subflow_request:
            (Array.map
               (fun _wire _j (p : Packet.t) ->
                 Net.inject r.net ~at:spec.Inrpp.Protocol.dst p)
               wires)
          ~wire_ids:wires
          ~on_complete:(fun ~fct -> complete r i ~fct))
      r.specs
  in
  on_data r (fun ~flow ~subflow p ->
      Puller.handle_data pullers.(flow) ~subflow p);
  observe_flows r
    ~received:(fun i -> Puller.received pullers.(i))
    (fun i ~metric ~series:_ ->
      let p = pullers.(i) in
      metric "puller_retransmissions_total" (fun () ->
          float_of_int (Puller.retransmissions p));
      metric "puller_loss_events_total" (fun () ->
          float_of_int (Puller.loss_events p));
      metric "puller_chunks_received" (fun () ->
          float_of_int (Puller.received p)));
  Array.iteri
    (fun i (spec : Inrpp.Protocol.flow_spec) ->
      ignore
        (Sim.Engine.schedule r.eng ~delay:spec.Inrpp.Protocol.start (fun () ->
             Puller.start pullers.(i))))
    r.specs;
  finish r ~retransmissions:(fun () ->
      Array.fold_left (fun acc p -> acc + Puller.retransmissions p) 0 pullers)

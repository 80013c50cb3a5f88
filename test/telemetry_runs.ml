(* The observed runs whose telemetry export test/golden/telemetry.sha256
   pins.  Each run returns its exports as named byte strings: the
   sampled series as NDJSON and CSV, and the end-of-run metric
   snapshot as NDJSON.  Shared by the golden test and its refresh
   executable so both always digest the same bytes. *)

let bulk = { Inrpp.Config.default with Inrpp.Config.anticipation = 512 }

(* the isp_zoo flows of bench/perf: fixed EBONE pairs *)
let ebone_specs ~chunks =
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
  let n = Topology.Graph.node_count g in
  let specs =
    List.filter_map
      (fun i ->
        let src = i * 3 mod n and dst = (i + (n / 2)) mod n in
        if src <> dst
           && Option.is_some (Topology.Dijkstra.shortest_path g src dst)
        then Some (Inrpp.Protocol.flow_spec ~src ~dst chunks)
        else None)
      (List.init 8 Fun.id)
  in
  (g, specs)

let exports prefix obs =
  let render f =
    let b = Buffer.create 65536 in
    f b;
    Buffer.contents b
  in
  let series = Obs.Observer.series obs in
  let snapshot = Obs.Observer.snapshot obs in
  [
    (prefix ^ ".series.ndjson", render (fun b -> Obs.Export.series_to_ndjson b series));
    ( prefix ^ ".series.csv",
      render (fun b ->
          Buffer.add_string b Obs.Export.csv_header;
          Obs.Export.series_to_csv b series) );
    (prefix ^ ".snapshot.ndjson", render (fun b -> Obs.Export.snapshot_to_ndjson b snapshot));
  ]

let ebone () =
  let g, specs = ebone_specs ~chunks:150 in
  let obs = Obs.Observer.create ~sample_interval:1e-3 () in
  ignore (Inrpp.Protocol.run ~cfg:bulk ~obs ~horizon:600. g specs);
  exports "ebone" obs

(* same flows, with the second link of the first flow's path down from
   5 ms to 15 ms: the run registers the link_up series and the fault
   counters *)
let ebone_faults () =
  let g, specs = ebone_specs ~chunks:150 in
  let first = List.hd specs in
  let link =
    match
      Topology.Dijkstra.shortest_path g first.Inrpp.Protocol.src
        first.Inrpp.Protocol.dst
    with
    | Some { Topology.Path.links = _ :: l :: _; _ } -> l.Topology.Link.id
    | _ -> failwith "telemetry golden: first EBONE flow path too short"
  in
  let faults =
    Fault.Schedule.of_list
      [
        { Fault.Schedule.at = 0.005;
          event = Fault.Schedule.Link_down { link; policy = `Drop_queued } };
        { Fault.Schedule.at = 0.015; event = Fault.Schedule.Link_up { link } };
      ]
  in
  let obs = Obs.Observer.create ~sample_interval:1e-3 () in
  ignore (Inrpp.Protocol.run ~cfg:bulk ~obs ~faults ~horizon:600. g specs);
  exports "ebone_faults" obs

(* the RCP, AIMD and HBH baseline runs share one scenario: three host
   pairs across a 5 Mbps dumbbell bottleneck, 60 chunks each *)
let dumbbell_run name run () =
  let g = Topology.Builders.dumbbell ~bottleneck_capacity:5e6 3 in
  let specs =
    List.init 3 (fun i -> Inrpp.Protocol.flow_spec ~src:(2 + i) ~dst:(5 + i) 60)
  in
  let obs = Obs.Observer.create () in
  ignore (run obs g specs : Baselines.Run_result.t);
  exports name obs

let rcp =
  dumbbell_run "rcp" (fun obs g specs ->
      Baselines.Rcp.run ~horizon:20. ~obs g specs)
let aimd =
  dumbbell_run "aimd" (fun obs g specs ->
      Baselines.Aimd.run ~horizon:20. ~obs g specs)
let hbh =
  dumbbell_run "hbh" (fun obs g specs ->
      Baselines.Hbh.run ~horizon:20. ~obs g specs)

(* fig3 has two link-disjoint paths from node 0 to node 3, so both
   flows get a second subflow on its own wire *)
let mptcp () =
  let g = Topology.Builders.fig3 () in
  let specs =
    [
      Inrpp.Protocol.flow_spec ~src:0 ~dst:3 120;
      Inrpp.Protocol.flow_spec ~src:0 ~dst:3 60;
    ]
  in
  let obs = Obs.Observer.create () in
  ignore (Baselines.Mptcp.run ~horizon:20. ~obs g specs);
  exports "mptcp" obs

let flowsim () =
  let g = Topology.Builders.dumbbell 3 in
  let cfg =
    Flowsim.Simulator.config ~strategy:Flowsim.Routing.inrp ~arrival_rate:10.
      ~endpoints:(Flowsim.Workload.Role_pairs [ Topology.Node.Host ])
      ~warmup:0.2 ~duration:1. ~seed:21L ()
  in
  let obs = Obs.Observer.create () in
  ignore (Flowsim.Simulator.run ~obs g cfg);
  exports "flowsim" obs

let runs =
  [
    ("ebone", ebone);
    ("ebone_faults", ebone_faults);
    ("rcp", rcp);
    ("flowsim", flowsim);
    ("aimd", aimd);
    ("hbh", hbh);
    ("mptcp", mptcp);
  ]

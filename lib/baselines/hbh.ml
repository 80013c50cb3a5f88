module Packet = Chunksim.Packet
module Net = Chunksim.Net
module Link = Topology.Link

(* Per-node, per-flow shaping state: requests queue here and leave
   paced at the flow's share of its data link. *)
type shaper = {
  rq : Packet.t Queue.t;
  mutable busy : bool;
  pace_gap : float;          (* seconds between forwarded requests *)
  forward : Packet.t -> unit;
}

type node_state = {
  shapers : (int, shaper) Hashtbl.t;
  data_links : (int, Link.t option) Hashtbl.t;  (* flow -> downstream link *)
}

let run ?chunk_bits ?queue_bits ?horizon ?obs ?faults g specs =
  let r =
    Harness.start ~protocol:"HBH" ~paths_per_flow:1 ?chunk_bits ?queue_bits
      ?horizon ?obs ?faults g specs
  in
  let chunk_bits = r.Harness.chunk_bits in
  let eng = r.Harness.eng in
  (* how many flows send data over each directed link: the processor
     sharing denominator of the shaper *)
  let flows_on_link = Hashtbl.create 32 in
  Array.iter
    (fun paths ->
      List.iter
        (fun (l : Link.t) ->
          Hashtbl.replace flows_on_link l.Link.id
            (1 + Option.value ~default:0 (Hashtbl.find_opt flows_on_link l.Link.id)))
        paths.(0).Topology.Path.links)
    r.Harness.paths;
  let states =
    Array.init (Topology.Graph.node_count g) (fun _ ->
        { shapers = Hashtbl.create 4; data_links = Hashtbl.create 4 })
  in
  (* sessions at the consumers *)
  let sessions =
    Array.map
      (fun spec ->
        Inrpp.Session.create ~total_chunks:spec.Inrpp.Protocol.chunks)
      r.Harness.specs
  in
  (* register each flow's data link at every path node so shapers know
     their pacing denominator *)
  Array.iteri
    (fun i paths ->
      let wire = r.Harness.wire_ids.(i).(0) in
      let nodes = Array.of_list paths.(0).Topology.Path.nodes in
      let links = Array.of_list paths.(0).Topology.Path.links in
      Array.iteri
        (fun k node ->
          Hashtbl.replace states.(node).data_links wire
            (if k < Array.length links then Some links.(k) else None))
        nodes)
    r.Harness.paths;
  (* shaped request relay installed on every node handler *)
  let rec service sh =
    if not sh.busy then begin
      match Queue.take_opt sh.rq with
      | None -> ()
      | Some p ->
        sh.busy <- true;
        sh.forward p;
        ignore
          (Sim.Engine.schedule eng ~delay:sh.pace_gap (fun () ->
               sh.busy <- false;
               service sh))
    end
  in
  let shaper_for node wire =
    let st = states.(node) in
    match Hashtbl.find_opt st.shapers wire with
    | Some sh -> sh
    | None ->
      let pace_gap =
        match Hashtbl.find_opt st.data_links wire with
        | Some (Some l) ->
          let sharers =
            Option.value ~default:1 (Hashtbl.find_opt flows_on_link l.Link.id)
          in
          chunk_bits /. (l.Link.capacity /. float_of_int (max 1 sharers))
        | _ -> 0.
      in
      let fwd = r.Harness.forwarders.(node) in
      let sh =
        {
          rq = Queue.create ();
          busy = false;
          pace_gap = Float.max 1e-6 pace_gap;
          forward =
            (fun p ->
              (* reuse the plain forwarder's request routing *)
              let h = Forwarder.handler fwd in
              h ~from:None p);
        }
      in
      Hashtbl.replace st.shapers wire sh;
      sh
  in
  Harness.on_data r (fun ~flow ~subflow:_ p ->
      let sess = sessions.(flow) in
      match p.Packet.header with
      | Packet.Data { idx; _ } when not (Inrpp.Session.is_complete sess) -> (
        match Inrpp.Session.receive sess idx with
        | `New ->
          if Inrpp.Session.is_complete sess then begin
            let start = r.Harness.specs.(flow).Inrpp.Protocol.start in
            Harness.complete r flow ~fct:(Sim.Engine.now eng -. start)
          end
        | `Duplicate -> ())
      | _ -> ());
  (* intercept requests for shaping; everything else forwards plainly *)
  Array.iteri
    (fun node fwd ->
      Net.set_handler r.Harness.net node (fun ~from p ->
          match p.Packet.header with
          | Packet.Request _ ->
            let sh = shaper_for node (Packet.flow p) in
            Queue.add p sh.rq;
            service sh
          | Packet.Data _ | Packet.Backpressure _ ->
            Forwarder.handler fwd ~from p))
    r.Harness.forwarders;
  Harness.observe_flows r
    ~received:(fun i -> Inrpp.Session.received_count sessions.(i))
    (fun _ ~metric:_ ~series:_ -> ());
  (* consumers: window of outstanding interests, self-clocked; the
     shapers inside the network do the congestion control *)
  let window = 32 in
  Array.iteri
    (fun i spec ->
      let wire = r.Harness.wire_ids.(i).(0) in
      let dst = spec.Inrpp.Protocol.dst in
      let sess = sessions.(i) in
      let next = ref 0 in
      let request idx =
        Net.inject r.Harness.net ~at:dst
          (Packet.request ~flow:wire ~nc:idx ~ack:0 ~ac:idx)
      in
      let rec top_up () =
        if not (Inrpp.Session.is_complete sess) then begin
          (* keep [window] interests in flight: one new request per
             arrival is triggered from a periodic refresh to keep the
             code simple and allocation-free on the data path *)
          let in_flight = !next - Inrpp.Session.received_count sess in
          if in_flight < window && !next < spec.Inrpp.Protocol.chunks then begin
            request !next;
            incr next
          end;
          ignore (Sim.Engine.schedule eng ~delay:(chunk_bits /. 10e6) top_up)
        end
      in
      ignore
        (Sim.Engine.schedule eng ~delay:spec.Inrpp.Protocol.start (fun () ->
             top_up ())))
    r.Harness.specs;
  (* no end-to-end loss recovery: HBH never retransmits *)
  Harness.finish r ~retransmissions:(fun () -> 0)

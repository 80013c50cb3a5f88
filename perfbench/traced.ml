(* The traced run: the stack [Inrpp.Protocol.run] builds, assembled
   here from the same public constructors and in the same order, with a
   span around every call the benchmark makes into a layer.  Only the
   features the workloads use are assembled (no faults, invariant
   checkers, loss, PIT-less forwarding or span tracing); the observer
   gets its sampler but not its snapshot-time callback metrics, which
   cost nothing while a run is in progress.  The assembly is not
   trusted: its [Outcome] digest must equal [Protocol.run]'s on the
   same input, or the traced run fails. *)

module Graph = Topology.Graph
module Link = Topology.Link
module Path = Topology.Path
module Net = Chunksim.Net
module Packet = Chunksim.Packet
module Trace = Chunksim.Trace
module P = Inrpp.Protocol
module Router = Inrpp.Router
module Config = Inrpp.Config

let k_net = Spans.id "setup.net"
let k_detour = Spans.id "setup.detour_table"
let k_routers = Spans.id "setup.routers"
let k_path = Spans.id "setup.path"
let k_pacing = Spans.id "setup.pacing"
let k_endpoints = Spans.id "setup.endpoints"
let k_handlers = Spans.id "setup.handlers"
let k_sampler = Spans.id "setup.sampler"
let k_schedule = Spans.id "setup.schedule"
let k_run = Spans.id "engine.run"
let k_handler = Spans.id "router.handler"
let k_originate = Spans.id "router.originate"
let k_sender = Spans.id "sender.handle"
let k_receiver = Spans.id "receiver.handle_data"
let k_start = Spans.id "receiver.start"
let k_tick = Spans.id "router.tick"
let k_drain = Spans.id "router.drain"

(* Counts the traced run reads off the layers after the call. *)
type layers = {
  router_ticks : int;        (* Router.tick calls (routers x tick events) *)
  router_drains : int;
  dijkstra_calls : int;
  installs : int;
  releases : int;
  entries_peak : int;
  table_bytes : int;
  estimators : int;          (* live estimators across routers at the end *)
  queue_scheduled : int;
  queue_cancelled : int;
  sampler_ticks : int;
  sampler_series : int;
  sampler_probe_s : float;
}

let phase_value = function
  | None -> -1.
  | Some Inrpp.Phase.Push_data -> 0.
  | Some Inrpp.Phase.Detour -> 1.
  | Some Inrpp.Phase.Backpressure -> 2.

let phase_names = [| "push"; "detour"; "backpressure" |]

let run (sp : Spans.t) (x : Workloads.input) : Outcome.t * layers =
  let cfg = x.Workloads.cfg and g = x.Workloads.g in
  let horizon = x.Workloads.horizon and overload = x.Workloads.overload in
  if cfg.Config.pitless then invalid_arg "Traced.run: pitless not assembled";
  (match Config.validate cfg with
  | Ok _ -> ()
  | Error msg -> invalid_arg msg);
  Option.iter Overload.Config.validate overload;
  let specs = x.Workloads.specs in
  let total_flows = List.length specs in
  let fcts = Array.make total_flows None in
  let install_sites = Array.make total_flows [] in
  let dijkstra_calls = ref 0 and installs = ref 0 and releases = ref 0 in
  let s = Spans.enter sp k_net (-1) in
  let eng = Sim.Engine.create () in
  let net =
    let discipline =
      if cfg.Config.drr_scheduler then Chunksim.Iface.Drr cfg.Config.chunk_bits
      else Chunksim.Iface.Fifo_discipline
    in
    Net.create ~queue_bits:cfg.Config.queue_bits
      ~speed_factor:cfg.Config.speed_factor ~discipline eng g
  in
  Spans.leave sp s;
  let obs =
    if x.Workloads.observed then Some (Obs.Observer.create ~clock:Spans.clock_s ())
    else None
  in
  let trace = Option.map (fun _ -> Trace.create ()) obs in
  (match (obs, trace) with
  | Some o, Some tr -> Obs.Observer.attach_trace o tr
  | _ -> ());
  let s = Spans.enter sp k_detour (-1) in
  let detours =
    Inrpp.Detour_table.create ~max_intermediate:(max 1 cfg.Config.max_detour) g
  in
  Spans.leave sp s;
  let link_state = Topology.Link_state.create g in
  let s = Spans.enter sp k_routers (-1) in
  let routers =
    Array.init (Graph.node_count g) (fun node ->
        Router.create ~cfg ~net ~node ~detours ~link_state ?trace ?overload ())
  in
  (match overload with
  | Some ov when ov.Overload.Config.neighbor_pressure < infinity ->
    let pressure node =
      let cache = Router.cache routers.(node) in
      Chunksim.Cache.custody_occupancy cache /. Chunksim.Cache.capacity cache
    in
    Array.iter (fun r -> Router.set_neighbor_pressure r pressure) routers
  | Some _ | None -> ());
  Spans.leave sp s;
  let watchdog =
    match overload with
    | Some ov when Overload.Config.watchdog_enabled ov ->
      Some
        (Obs.Watchdog.create ~window:ov.Overload.Config.watchdog_window
           ~collapse_ratio:ov.Overload.Config.collapse_ratio
           ~recovery_ratio:ov.Overload.Config.recovery_ratio
           ~on_collapse:(fun ~time:_ ~rate:_ ~peak:_ -> ())
           ())
    | Some _ | None -> None
  in
  let producers : (int, (int, Inrpp.Sender.t) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let consumers : (int, (int, Inrpp.Receiver.t) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let endpoint_table tbl node =
    match Hashtbl.find_opt tbl node with
    | Some sub -> sub
    | None ->
      let sub = Hashtbl.create 4 in
      Hashtbl.add tbl node sub;
      sub
  in
  let completed = ref 0 in
  let all_done () = !completed = total_flows in
  let base_delay = Array.make total_flows 0. in
  let fct_hist, qdelay_hist =
    match obs with
    | None -> (None, None)
    | Some o ->
      let reg = Obs.Observer.registry o in
      ( Some
          (Obs.Metric.histogram reg ~lo:0. ~hi:horizon ~bins:64
             "flow_fct_seconds"),
        Some
          (Array.init total_flows (fun i ->
               Obs.Metric.histogram reg
                 ~labels:[ ("flow", string_of_int i) ]
                 ~lo:0. ~hi:10. ~bins:50 "chunk_queueing_delay_seconds")) )
  in
  let receivers = Array.make total_flows None in
  let shortest src dst =
    incr dijkstra_calls;
    Topology.Dijkstra.shortest_path g src dst
  in
  List.iteri
    (fun flow_id (spec : P.flow_spec) ->
      let s = Spans.enter sp k_path flow_id in
      let path =
        match shortest spec.P.src spec.P.dst with
        | Some p -> p
        | None -> invalid_arg "Traced.run: unroutable flow"
      in
      let nodes = Array.of_list path.Path.nodes in
      let links = Array.of_list path.Path.links in
      base_delay.(flow_id) <-
        List.fold_left
          (fun acc (l : Link.t) ->
            acc +. l.Link.delay
            +. (cfg.Config.chunk_bits
               /. (l.Link.capacity *. cfg.Config.speed_factor)))
          0. path.Path.links;
      let n = Array.length nodes in
      for k = 0 to n - 1 do
        let data_link = if k < n - 1 then Some links.(k) else None in
        let req_link =
          if k > 0 then Graph.find_link g nodes.(k) nodes.(k - 1) else None
        in
        incr installs;
        Router.install_flow routers.(nodes.(k)) ?content:spec.P.content
          ~flow:flow_id ~data_link ~req_link ()
      done;
      install_sites.(flow_id) <- path.Path.nodes;
      Spans.leave sp s;
      let s = Spans.enter sp k_pacing flow_id in
      let pace_rate =
        match path.Path.links with
        | first :: _ ->
          let sharers =
            List.fold_left
              (fun acc (other : P.flow_spec) ->
                match shortest other.P.src other.P.dst with
                | Some op -> begin
                  match op.Path.links with
                  | f2 :: _ when f2.Link.id = first.Link.id -> acc + 1
                  | _ -> acc
                end
                | None -> acc)
              0 specs
          in
          first.Link.capacity *. cfg.Config.speed_factor
          /. float_of_int (max 1 sharers)
        | [] -> cfg.Config.chunk_bits
      in
      Spans.leave sp s;
      let s = Spans.enter sp k_endpoints flow_id in
      let src_router = routers.(spec.P.src) in
      let transmit p =
        if not (Router.is_crashed src_router) then begin
          let i = Spans.enter sp k_originate flow_id in
          Router.originate_data src_router p;
          Spans.leave sp i
        end
      in
      let sender =
        Inrpp.Sender.create ~cfg ~eng ?trace ~flow:flow_id
          ~total_chunks:spec.P.chunks ~pace_rate ~transmit ()
      in
      Hashtbl.replace (endpoint_table producers spec.P.src) flow_id sender;
      let receiver =
        Inrpp.Receiver.create ~cfg ~eng ~flow:flow_id ~total_chunks:spec.P.chunks
          ~send_request:(fun p -> Net.inject net ~at:spec.P.dst p)
          ~on_complete:(fun ~fct ->
            fcts.(flow_id) <- Some fct;
            if cfg.Config.flow_teardown then begin
              List.iter
                (fun nd ->
                  incr releases;
                  Router.release_flow routers.(nd) ~flow:flow_id)
                install_sites.(flow_id);
              install_sites.(flow_id) <- []
            end;
            (match fct_hist with
            | Some h -> Obs.Metric.observe h fct
            | None -> ());
            incr completed;
            match trace with
            | Some tr ->
              Trace.record tr ~time:(Sim.Engine.now eng)
                (Trace.Flow_complete { flow = flow_id; fct })
            | None -> ())
          ?overload ()
      in
      receivers.(flow_id) <- Some receiver;
      Hashtbl.replace (endpoint_table consumers spec.P.dst) flow_id receiver;
      Spans.leave sp s)
    specs;
  let s = Spans.enter sp k_handlers (-1) in
  for node = 0 to Graph.node_count g - 1 do
    let router = routers.(node) in
    (match Hashtbl.find_opt producers node with
    | Some senders ->
      Router.set_local_producer router (fun p ->
          match Hashtbl.find_opt senders (Packet.flow p) with
          | Some snd ->
            let i = Spans.enter sp k_sender (Packet.flow p) in
            Inrpp.Sender.handle snd p;
            Spans.leave sp i
          | None -> ())
    | None -> ());
    (match Hashtbl.find_opt consumers node with
    | Some recvs ->
      let observe_data =
        match qdelay_hist with
        | None -> fun (_ : Packet.t) -> ()
        | Some hs ->
          fun (p : Packet.t) -> (
            match p.Packet.header with
            | Packet.Data { flow; born; _ } ->
              let d = Sim.Engine.now eng -. born -. base_delay.(flow) in
              Obs.Metric.observe hs.(flow) (Float.max 0. d)
            | _ -> ())
      in
      Router.set_local_consumer router (fun p ->
          observe_data p;
          (match watchdog with
          | Some wd -> (
            match p.Packet.header with
            | Packet.Data _ ->
              Obs.Watchdog.note_delivery wd ~time:(Sim.Engine.now eng)
                ~bits:p.Packet.size
            | _ -> ())
          | None -> ());
          match Hashtbl.find_opt recvs (Packet.flow p) with
          | Some r ->
            let i = Spans.enter sp k_receiver (Packet.flow p) in
            Inrpp.Receiver.handle_data r p;
            Spans.leave sp i
          | None -> ())
    | None -> ());
    let h = Router.handler router in
    Net.set_handler net node (fun ~from p ->
        let i = Spans.enter sp k_handler (Packet.flow p) in
        h ~from p;
        Spans.leave sp i)
  done;
  Spans.leave sp s;
  let sampler =
    match obs with
    | None -> None
    | Some o ->
      let s = Spans.enter sp k_sampler (-1) in
      let smp =
        Obs.Observer.install_sampler o ~eng ~default_interval:cfg.Config.ti
      in
      Net.iter_ifaces net (fun i ->
          let l = Chunksim.Iface.link i in
          let r = routers.(l.Link.src) in
          let li = l.Link.id in
          let labels =
            [ ("node", string_of_int l.Link.src); ("link", string_of_int li) ]
          in
          let track name fn = ignore (Obs.Sampler.track smp ~labels name fn) in
          track "iface_phase" (fun () -> phase_value (Router.phase_of_link r li));
          track "iface_anticipated_bps" (fun () ->
              Option.value ~default:0. (Router.anticipated_rate_of_link r li));
          track "iface_anticipated_ratio" (fun () ->
              Option.value ~default:0. (Router.ratio_of_link r li));
          track "iface_queue_bits" (fun () -> Chunksim.Iface.queue_occupancy i);
          track "iface_utilisation" (fun () ->
              Chunksim.Iface.utilisation i ~now:(Sim.Engine.now eng));
          let acc = [| 0.; 0.; 0. |] in
          let last_t = ref (Sim.Engine.now eng) in
          let last_ph = ref (-1) in
          Obs.Sampler.on_sample smp (fun () ->
              let t_now = Sim.Engine.now eng in
              if !last_ph >= 0 then
                acc.(!last_ph) <- acc.(!last_ph) +. (t_now -. !last_t);
              last_t := t_now;
              last_ph := int_of_float (phase_value (Router.phase_of_link r li)));
          Array.iteri
            (fun pi pname ->
              let labels = ("phase", pname) :: labels in
              ignore
                (Obs.Sampler.track smp ~labels "iface_phase_occupancy"
                   (fun () ->
                     let tot = acc.(0) +. acc.(1) +. acc.(2) in
                     if tot <= 0. then 0. else acc.(pi) /. tot)))
            phase_names);
      Array.iter
        (fun r ->
          let labels = [ ("node", string_of_int (Router.node r)) ] in
          let track name fn = ignore (Obs.Sampler.track smp ~labels name fn) in
          track "custody_bits" (fun () ->
              Chunksim.Cache.custody_occupancy (Router.cache r));
          track "bp_active_flows" (fun () ->
              float_of_int (Router.bp_active_flows r));
          let c = Router.counters r in
          track "detoured_total" (fun () -> float_of_int c.Router.detoured))
        routers;
      Obs.Sampler.start ~stop:all_done smp;
      Spans.leave sp s;
      Some smp
  in
  let s = Spans.enter sp k_schedule (-1) in
  let ticks = ref 0 and drains = ref 0 in
  let nrouters = Array.length routers in
  let peak_custody = ref 0. in
  ignore
  @@ Sim.Engine.schedule_periodic eng ~interval:cfg.Config.ti (fun () ->
         let i = Spans.enter sp k_tick (-1) in
         Array.iter
           (fun r ->
             Router.tick r;
             let occ = Chunksim.Cache.custody_occupancy (Router.cache r) in
             if occ > !peak_custody then peak_custody := occ)
           routers;
         Spans.leave sp i;
         ticks := !ticks + nrouters;
         (match watchdog with
         | Some wd when not (all_done ()) ->
           Obs.Watchdog.tick wd ~time:(Sim.Engine.now eng)
         | Some _ | None -> ());
         not (all_done ()));
  ignore
  @@ Sim.Engine.schedule_periodic eng ~interval:(cfg.Config.ti /. 4.) (fun () ->
         let i = Spans.enter sp k_drain (-1) in
         Array.iter Router.drain routers;
         Spans.leave sp i;
         drains := !drains + nrouters;
         not (all_done ()));
  List.iteri
    (fun flow_id (spec : P.flow_spec) ->
      ignore
        (Sim.Engine.schedule eng ~delay:spec.P.start (fun () ->
             match receivers.(flow_id) with
             | Some r ->
               let i = Spans.enter sp k_start flow_id in
               Inrpp.Receiver.start r;
               Spans.leave sp i
             | None -> ())))
    specs;
  Spans.leave sp s;
  let s = Spans.enter sp k_run (-1) in
  Sim.Engine.run ~until:horizon eng;
  Spans.leave sp s;
  let sum f =
    Array.fold_left (fun acc r -> acc + f (Router.counters r)) 0 routers
  in
  let sumr f = Array.fold_left (fun acc r -> acc + f r) 0 routers in
  let recv i f = f (Option.get receivers.(i)) in
  let outcome =
    { Outcome.fcts;
      received =
        Array.init total_flows (fun i ->
            recv i (fun r ->
                Inrpp.Session.received_count (Inrpp.Receiver.session r)));
      duplicates = Array.init total_flows (fun i -> recv i Inrpp.Receiver.duplicates);
      requests =
        Array.init total_flows (fun i -> recv i Inrpp.Receiver.requests_sent);
      engine_events = Sim.Engine.events_handled eng;
      drops = sum (fun c -> c.Router.dropped);
      forwarded = sum (fun c -> c.Router.forwarded_data);
      detoured = sum (fun c -> c.Router.detoured);
      custody_stored = sum (fun c -> c.Router.custody_stored);
      custody_released = sum (fun c -> c.Router.custody_released);
      bp_engages = sum (fun c -> c.Router.bp_engages);
      bp_releases = sum (fun c -> c.Router.bp_releases);
      shed = sum (fun c -> c.Router.shed);
      detours_refused = sum (fun c -> c.Router.detours_refused);
      collapse_episodes =
        (match watchdog with Some wd -> Obs.Watchdog.episodes wd | None -> 0) }
  in
  let qs = Sim.Engine.queue_stats eng in
  let layers =
    { router_ticks = !ticks; router_drains = !drains;
      dijkstra_calls = !dijkstra_calls; installs = !installs;
      releases = !releases; entries_peak = sumr Router.flow_entries_peak;
      table_bytes = sumr Router.flow_table_bytes;
      estimators = sumr (fun r -> List.length (Router.estimator_links r));
      queue_scheduled = qs.Sim.Event_queue.scheduled;
      queue_cancelled = qs.Sim.Event_queue.cancelled;
      sampler_ticks = Option.fold ~none:0 ~some:Obs.Sampler.ticks sampler;
      sampler_series =
        Option.fold ~none:0 ~some:(fun s -> List.length (Obs.Sampler.series s)) sampler;
      sampler_probe_s = Option.fold ~none:0. ~some:Obs.Sampler.probe_seconds sampler }
  in
  (outcome, layers)

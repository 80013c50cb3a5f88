(* The four benchmark workloads.  Each is a function from the run's
   seed to a fixed set of [calls] independent inputs for
   [Inrpp.Protocol.run]; a run cycles through the set until its time
   is up, so every pass does the same work.  Inputs are generated here,
   from the seed, and handed to the program as plain flow specs.  Sizes
   are chosen so that no flow fails and the per-seed spread of each
   end-to-end metric stays well inside its bound (see METRICS.md). *)

module P = Inrpp.Protocol

type input = {
  g : Topology.Graph.t;
  specs : P.flow_spec list;
  cfg : Inrpp.Config.t;
  horizon : float;
  overload : Overload.Config.t option;
  observed : bool;  (** run with an [Obs.Observer] at the default interval *)
  gen_s : float;    (** host seconds [Workload.Gen] took to make [specs] *)
}

type t = {
  name : string;
  calls : int;      (** inputs per pass *)
  sizes : (string * int) list;  (** recorded in the environment stamp *)
  make : seed:int -> int -> input;  (** [make ~seed i]: the pass's i-th input *)
}

(* Independent 64-bit stream per (seed, call index). *)
let sub_seed ~seed i =
  let r = Sim.Rng.create (Int64.of_int ((seed * 1_000_003) + i)) in
  Sim.Rng.next_int64 r

(* The ROADMAP's bulk configuration (as in bench/perf): a wide
   anticipation window keeps the senders in push-data. *)
let bulk_cfg = { Inrpp.Config.default with Inrpp.Config.anticipation = 512 }

let ebone () = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone

let routable g src dst =
  src <> dst && Option.is_some (Topology.Dijkstra.shortest_path g src dst)

let gen_specs spec g =
  let t0 = Unix.gettimeofday () in
  let reqs = Workload.Gen.requests spec g in
  let gen_s = Unix.gettimeofday () -. t0 in
  let specs =
    List.map
      (fun (r : Workload.Request.t) ->
        P.flow_spec ~start:r.Workload.Request.start
          ~content:r.Workload.Request.content ~src:r.Workload.Request.src
          ~dst:r.Workload.Request.dst r.Workload.Request.chunks)
      reqs
  in
  (specs, gen_s)

(* ebone_bulk: long transfers in the push-data/detour regime.  A
   partial permutation (distinct senders, distinct receivers) keeps the
   per-input cost from swinging with how many flows share an endpoint:
   flows converging on a 2.5 Gbps edge drop chunks and then recover
   through a long timeout tail, which dominates the input's cost. *)
let bulk_pairs = 32

let ebone_bulk ~chunks ~calls =
  let make ~seed i =
    let g = ebone () in
    let n = Topology.Graph.node_count g in
    let rng = Sim.Rng.create (sub_seed ~seed i) in
    (* a partial permutation: [bulk_pairs] distinct senders, each to a
       distinct receiver *)
    let rec draw () =
      let src = Array.init n Fun.id and dst = Array.init n Fun.id in
      Sim.Rng.shuffle rng src;
      Sim.Rng.shuffle rng dst;
      let pairs = List.init bulk_pairs (fun k -> (src.(k), dst.(k))) in
      if List.for_all (fun (s, d) -> routable g s d) pairs then pairs else draw ()
    in
    let specs =
      List.map (fun (src, dst) -> P.flow_spec ~src ~dst chunks) (draw ())
    in
    { g; specs; cfg = bulk_cfg; horizon = 100_000.; overload = None;
      observed = false; gen_s = 0. }
  in
  { name = "ebone_bulk"; calls;
    sizes = [ ("calls", calls); ("pairs", bulk_pairs); ("chunks", chunks) ];
    make }

(* ebone_sessions: open-loop Poisson sessions (1/s, Zipf catalogue),
   many short flows with flow teardown — per-flow set-up, estimator
   ticks and flow-table churn. *)
let ebone_sessions ~sessions ~calls =
  let make ~seed i =
    let g = ebone () in
    let spec =
      { Workload.Gen.default with
        Workload.Gen.seed = sub_seed ~seed i;
        horizon = 100_000.;
        max_requests = sessions;
        rate = 1.0 }
    in
    let specs, gen_s = gen_specs spec g in
    { g; specs;
      cfg = { Inrpp.Config.default with Inrpp.Config.flow_teardown = true };
      horizon = 100_000.; overload = None; observed = false; gen_s }
  in
  { name = "ebone_sessions"; calls;
    sizes = [ ("calls", calls); ("sessions", sessions) ]; make }

(* dumbbell_crowd: host-to-host sessions at about twice the capacity
   of a 1.5 Mbps bottleneck that has no detour, with an 8x flash crowd
   on top, a small custody store and the overload layer on — the
   back-pressure/custody regime. *)
let crowd_store_chunks = 40

let dumbbell_crowd ~requests ~calls =
  let g =
    lazy
      (Topology.Builders.dumbbell ~access_capacity:10e6
         ~bottleneck_capacity:1.5e6 4)
  in
  let make ~seed i =
    let g = Lazy.force g in
    let spec =
      { Workload.Gen.default with
        Workload.Gen.seed = sub_seed ~seed i;
        horizon = 100_000.;
        max_requests = requests;
        objects = 24;
        chunk_min = 8;
        chunk_max = 32;
        rate = 3.0;
        bursts = [ Workload.Arrivals.burst ~at:2. ~duration:4. ~boost:8. ];
        producers = [ Topology.Node.Host ];
        consumers = [ Topology.Node.Host ] }
    in
    let specs, gen_s = gen_specs spec g in
    let cfg =
      { Inrpp.Config.default with
        Inrpp.Config.cache_bits =
          float_of_int crowd_store_chunks
          *. Inrpp.Config.default.Inrpp.Config.chunk_bits }
    in
    { g; specs; cfg; horizon = 100_000.;
      overload = Some Overload.Config.default; observed = false; gen_s }
  in
  { name = "dumbbell_crowd"; calls;
    sizes =
      [ ("calls", calls); ("requests", requests);
        ("store_chunks", crowd_store_chunks) ];
    make }

(* ebone_observed: the ROADMAP's isp_zoo inputs (fixed EBONE pairs)
   with an observer attached.  The seed jitters the flow start times by
   up to 10 us: every seed gives distinct inputs but the same regime.
   Jitter of a few ms can tip these flows into the retransmission tail,
   which doubles the sampled simulated time and so the telemetry work. *)
let ebone_observed ~chunks ~calls =
  let make ~seed i =
    let g = ebone () in
    let n = Topology.Graph.node_count g in
    let rng = Sim.Rng.create (sub_seed ~seed i) in
    let specs =
      List.filter_map
        (fun k ->
          let src = k * 3 mod n and dst = (k + (n / 2)) mod n in
          if routable g src dst then
            Some
              (P.flow_spec ~start:(Sim.Rng.float rng 1e-5) ~src ~dst chunks)
          else None)
        (List.init 8 Fun.id)
    in
    { g; specs; cfg = bulk_cfg; horizon = 100_000.; overload = None;
      observed = true; gen_s = 0. }
  in
  { name = "ebone_observed"; calls;
    sizes = [ ("calls", calls); ("flows", 8); ("chunks", chunks) ]; make }

let all ~smoke =
  if smoke then
    [ ebone_bulk ~chunks:100 ~calls:2;
      ebone_sessions ~sessions:16 ~calls:2;
      dumbbell_crowd ~requests:24 ~calls:2;
      ebone_observed ~chunks:50 ~calls:2 ]
  else
    [ ebone_bulk ~chunks:1000 ~calls:16;
      ebone_sessions ~sessions:128 ~calls:24;
      dumbbell_crowd ~requests:300 ~calls:16;
      ebone_observed ~chunks:250 ~calls:8 ]

let find ~smoke name = List.find_opt (fun w -> w.name = name) (all ~smoke)

(* Untraced call: exactly what a user of the library runs. *)
let run_input ?obs (x : input) =
  P.run ~cfg:x.cfg ~horizon:x.horizon ?overload:x.overload ?obs x.g x.specs

let observer_for (x : input) =
  if x.observed then Some (Obs.Observer.create ()) else None

(* Seeded random chunk-level scenarios for the transmitter differential.

   Each seed fully determines a connected random graph, a set of
   shortest-path flows and a burst of timed data injections; the run
   replays them hop by hop over one transmitter per directed link, with
   static per-flow next-hop tables, and records every delivery in
   arrival order.  With [disrupt] the same scenario also takes link
   outages (drop or hold the queue, some flapping before the wire
   drains) and timed state reads (queue occupancy, busy, packets and
   bits sent, utilisation) drawn from a second seeded stream, so the
   plain scenario is unchanged by the flag.  The run is generic in the
   transmitter: the differential replays it through [Chunksim.Iface]
   and through the eager reference model [Ref_iface]. *)

module Graph = Topology.Graph
module Builders = Topology.Builders
module Packet = Chunksim.Packet

let chunk_bits = 80_000. (* 10 kB data chunk *)

module type TRANSMITTER = sig
  type t

  val create :
    ?queue_bits:float -> ?discipline:Chunksim.Iface.discipline ->
    Sim.Engine.t -> Topology.Link.t -> deliver:(Packet.t -> unit) -> t

  val send : t -> Packet.t -> [ `Queued | `Dropped ]
  val set_down : ?policy:[ `Drop_queued | `Hold_queued ] -> t -> unit
  val set_up : t -> unit
  val set_fault_tap : t -> (Packet.t -> unit) -> unit
  val queue_occupancy : t -> float
  val busy : t -> bool
  val utilisation : t -> now:float -> float
  val tx_bits : t -> float
  val tx_packets : t -> int
  val drops : t -> int
  val fault_drops : t -> int
end

type delivery = { time : float; node : int; flow : int; idx : int }

type read = {
  at : float;
  link : int;
  occupancy : float;
  busy : bool;
  packets : int;
  bits : float;
  util : float;
}

type outcome = {
  deliveries : delivery list;  (* arrival order *)
  killed : delivery list;      (* outage kills; [node] is the link id *)
  reads : read list;
  drops : int;                 (* queue-full refusals *)
  fault_drops : int;
  tx_bits : float;
  events : int;                (* engine events — excluded from equality *)
}

(* Equality of everything observable; [events] is ignored (the lazy
   transmitter schedules one event per packet, the reference two). *)
let equal_outcome a b =
  a.deliveries = b.deliveries && a.killed = b.killed && a.reads = b.reads
  && a.drops = b.drops
  && a.fault_drops = b.fault_drops
  && Float.equal a.tx_bits b.tx_bits

let pp_delivery ppf d =
  Format.fprintf ppf "t=%.17g node=%d flow=%d idx=%d" d.time d.node d.flow d.idx

let pp_read ppf r =
  Format.fprintf ppf "t=%.17g link=%d occ=%g busy=%b pkts=%d bits=%g util=%.17g"
    r.at r.link r.occupancy r.busy r.packets r.bits r.util

let first_diff what pp xs ys =
  let rec go i xs ys =
    match (xs, ys) with
    | [], [] -> None
    | x :: xs, y :: ys when x = y -> go (i + 1) xs ys
    | x :: _, y :: _ ->
      Some (Format.asprintf "%s %d differs: %a vs %a" what i pp x pp y)
    | _ ->
      Some
        (Printf.sprintf "%s counts differ: %d vs %d" what (List.length xs)
           (List.length ys))
  in
  go 0 xs ys

let diff_outcomes a b =
  if a.drops <> b.drops then
    Printf.sprintf "drops differ: %d vs %d" a.drops b.drops
  else if a.fault_drops <> b.fault_drops then
    Printf.sprintf "fault drops differ: %d vs %d" a.fault_drops b.fault_drops
  else if not (Float.equal a.tx_bits b.tx_bits) then
    Printf.sprintf "tx bits differ: %.17g vs %.17g" a.tx_bits b.tx_bits
  else
    match first_diff "delivery" pp_delivery a.deliveries b.deliveries with
    | Some d -> d
    | None -> (
      match first_diff "kill" pp_delivery a.killed b.killed with
      | Some d -> d
      | None -> (
        match first_diff "read" pp_read a.reads b.reads with
        | Some d -> d
        | None -> "outcomes equal"))

let idx_of (p : Packet.t) =
  match p.Packet.header with Packet.Data { idx; _ } -> idx | _ -> -1

module Make (T : TRANSMITTER) = struct
  let run ?(disrupt = false) ~seed () =
    let rng = Sim.Rng.create (Int64.of_int (0x5EED0 + seed)) in
    let n = 5 + Sim.Rng.int rng 8 in
    let rec pick_graph attempt =
      if attempt >= 10 then Builders.ring ~capacity:10e6 n
      else
        let g =
          Builders.erdos_renyi ~capacity:10e6
            ~seed:(Int64.of_int ((seed * 97) + attempt))
            ~p:0.4 n
        in
        if Graph.is_connected g then g else pick_graph (attempt + 1)
    in
    let g = pick_graph 0 in
    let nflows = 3 + Sim.Rng.int rng 4 in
    (* per-flow next-hop tables; the last path node records delivery *)
    let next_hop : (int, Topology.Link.t option) Hashtbl.t =
      Hashtbl.create 64
    in
    let hop_key node f = Chunksim.Chunk_key.pack ~flow:node ~idx:f in
    let path_links = ref [] in
    let flows =
      Array.init nflows (fun f ->
          let rec pick tries =
            let src = Sim.Rng.int rng n and dst = Sim.Rng.int rng n in
            if src <> dst then (src, dst)
            else if tries > 100 then (0, n - 1)
            else pick (tries + 1)
          in
          let src, dst = pick 0 in
          let path = Option.get (Topology.Dijkstra.shortest_path g src dst) in
          let nodes = Array.of_list path.Topology.Path.nodes in
          let links = Array.of_list path.Topology.Path.links in
          Array.iteri
            (fun k node ->
              let hop =
                if k < Array.length links then Some links.(k) else None
              in
              Hashtbl.replace next_hop (hop_key node f) hop)
            nodes;
          Array.iter
            (fun (l : Topology.Link.t) ->
              if not (List.mem l.Topology.Link.id !path_links) then
                path_links := l.Topology.Link.id :: !path_links)
            links;
          src)
    in
    (* injection schedule: (time, flow, idx), generated before the
       engine exists so the rng draw order is scenario-only *)
    let injections =
      Array.init nflows (fun f ->
          let count = 20 + Sim.Rng.int rng 41 in
          let start = Sim.Rng.uniform rng ~lo:0. ~hi:0.3 in
          Array.init count (fun idx ->
              ( start
                +. (float_of_int idx *. Sim.Rng.uniform rng ~lo:0.5e-3 ~hi:8e-3),
                f,
                idx )))
    in
    let eng = Sim.Engine.create () in
    let queue_bits = 8. *. chunk_bits in
    let handlers = Array.make n (fun (_ : Packet.t) -> ()) in
    let killed = ref [] in
    let txs =
      Array.init (Graph.link_count g) (fun i ->
          let l = Graph.link g i in
          let tx =
            T.create ~queue_bits eng l ~deliver:(fun p ->
                handlers.(l.Topology.Link.dst) p)
          in
          T.set_fault_tap tx (fun p ->
              killed :=
                { time = Sim.Engine.now eng; node = i; flow = Packet.flow p;
                  idx = idx_of p }
                :: !killed);
          tx)
    in
    let acc = ref [] in
    for node = 0 to n - 1 do
      handlers.(node) <-
        (fun p ->
          let f = Packet.flow p in
          match Hashtbl.find_opt next_hop (hop_key node f) with
          | Some (Some l) -> ignore (T.send txs.(l.Topology.Link.id) p)
          | Some None ->
            acc :=
              { time = Sim.Engine.now eng; node; flow = f; idx = idx_of p }
              :: !acc
          | None -> ())
    done;
    Array.iter
      (fun per_flow ->
        Array.iter
          (fun (time, f, idx) ->
            ignore
              (Sim.Engine.schedule_at eng ~time (fun () ->
                   let p = Packet.data ~flow:f ~idx ~born:time chunk_bits in
                   handlers.(flows.(f)) p)))
          per_flow)
      injections;
    let reads = ref [] in
    if disrupt then begin
      let drng = Sim.Rng.create (Int64.of_int (0xD15C0 + seed)) in
      let links = Array.of_list (List.rev !path_links) in
      let pick_link () = links.(Sim.Rng.int drng (Array.length links)) in
      for _ = 1 to 1 + Sim.Rng.int drng 3 do
        let i = pick_link () in
        let down = Sim.Rng.uniform drng ~lo:0.05 ~hi:0.4 in
        let policy = if Sim.Rng.bool drng then `Hold_queued else `Drop_queued in
        let outage = Sim.Rng.uniform drng ~lo:5e-4 ~hi:0.02 in
        ignore
          (Sim.Engine.schedule_at eng ~time:down (fun () ->
               T.set_down ~policy txs.(i)));
        ignore
          (Sim.Engine.schedule_at eng ~time:(down +. outage) (fun () ->
               T.set_up txs.(i)));
        (* a flap: down again soon after, often before the packets the
           first outage doomed have all reached the far end (outages
           are short next to a 9 ms serialisation + propagation) *)
        if Sim.Rng.bool drng then begin
          let again = down +. outage +. Sim.Rng.uniform drng ~lo:1e-4 ~hi:4e-3 in
          ignore
            (Sim.Engine.schedule_at eng ~time:again (fun () ->
                 T.set_down ~policy txs.(i)));
          ignore
            (Sim.Engine.schedule_at eng ~time:(again +. outage) (fun () ->
                 T.set_up txs.(i)))
        end
      done;
      for _ = 1 to 40 do
        let i = pick_link () in
        let at = Sim.Rng.uniform drng ~lo:0. ~hi:0.6 in
        ignore
          (Sim.Engine.schedule_at eng ~time:at (fun () ->
               let tx = txs.(i) in
               let now = Sim.Engine.now eng in
               reads :=
                 {
                   at = now;
                   link = i;
                   occupancy = T.queue_occupancy tx;
                   busy = T.busy tx;
                   packets = T.tx_packets tx;
                   bits = T.tx_bits tx;
                   util = T.utilisation tx ~now;
                 }
                 :: !reads))
      done
    end;
    Sim.Engine.run eng;
    let sum f = Array.fold_left (fun a tx -> a + f tx) 0 txs in
    {
      deliveries = List.rev !acc;
      killed = List.rev !killed;
      reads = List.rev !reads;
      drops = sum T.drops;
      fault_drops = sum T.fault_drops;
      tx_bits = Array.fold_left (fun a tx -> a +. T.tx_bits tx) 0. txs;
      events = Sim.Engine.events_handled eng;
    }
end

(* [Chunksim.Iface] under the transmitter signature *)
module Lazy_iface = struct
  include Chunksim.Iface

  let create ?queue_bits ?discipline eng l ~deliver =
    create ?queue_bits ?discipline eng l ~deliver
end

module Lazy_run = Make (Lazy_iface)
module Reference_run = Make (Ref_iface)

(* One seed, plain and disrupted, through both transmitters. *)
let lazy_vs_reference ~seed =
  let compare disrupt =
    let a = Lazy_run.run ~disrupt ~seed () in
    let b = Reference_run.run ~disrupt ~seed () in
    if equal_outcome a b then Ok a
    else
      Error
        (Printf.sprintf "seed %d%s: %s" seed
           (if disrupt then " (disrupted)" else "")
           (diff_outcomes a b))
  in
  match (compare false, compare true) with
  | Ok a, Ok d ->
    {
      Check.Differential.equal = true;
      detail =
        Printf.sprintf
          "seed %d: %d deliveries, %d drops, %d outage kills — lazy = reference"
          seed (List.length a.deliveries) a.drops d.fault_drops;
    }
  | Error e, _ | Ok _, Error e -> { Check.Differential.equal = false; detail = e }

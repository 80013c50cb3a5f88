(* Eager two-event reference transmitter.

   The observable contract of [Chunksim.Iface] written the direct way:
   popping a packet schedules a serialisation-complete event, which
   accrues the transmission statistics, schedules the packet's
   propagation event and pops the next packet.  Every state read is a
   plain field read.  No wire loss.  [Chunksim.Iface] reaches the same
   observables with one lazily scheduled event per packet; the
   differential tests drive both through identical traffic, outages
   and reads and require identical results. *)

module Packet = Chunksim.Packet

type queue =
  | Q_fifo of Chunksim.Fifo.t
  | Q_drr of Chunksim.Rr_queue.t

type t = {
  eng : Sim.Engine.t;
  q : queue;
  rate : float;
  prop_delay : float;
  deliver : Packet.t -> unit;
  mutable is_busy : bool;
  mutable up : bool;
  mutable on_wire : int;  (* popped packets that have not arrived *)
  mutable kill : int;     (* arrivals still to destroy (outage) *)
  mutable fault_tap : Packet.t -> unit;
  mutable busy_time : float;
  mutable tx_bits : float;
  mutable tx_packets : int;
  mutable fault_drops : int;
}

let create ?(queue_bits = 64. *. 10e3 *. 8.)
    ?(discipline = Chunksim.Iface.Fifo_discipline) eng (l : Topology.Link.t)
    ~deliver =
  {
    eng;
    q =
      (match discipline with
      | Chunksim.Iface.Fifo_discipline ->
        Q_fifo (Chunksim.Fifo.create ~capacity:queue_bits)
      | Chunksim.Iface.Drr quantum ->
        Q_drr (Chunksim.Rr_queue.create ~quantum ~capacity:queue_bits ()));
    rate = l.Topology.Link.capacity;
    prop_delay = l.Topology.Link.delay;
    deliver;
    is_busy = false;
    up = true;
    on_wire = 0;
    kill = 0;
    fault_tap = (fun _ -> ());
    busy_time = 0.;
    tx_bits = 0.;
    tx_packets = 0;
    fault_drops = 0;
  }

let pop t =
  match t.q with
  | Q_fifo f -> Chunksim.Fifo.pop f
  | Q_drr d -> Chunksim.Rr_queue.pop d

let arrive t p =
  t.on_wire <- t.on_wire - 1;
  if t.kill > 0 then begin
    t.kill <- t.kill - 1;
    t.fault_drops <- t.fault_drops + 1;
    t.fault_tap p
  end
  else t.deliver p

let rec kick t =
  if (not t.is_busy) && t.up then
    match pop t with
    | None -> ()
    | Some p ->
      t.is_busy <- true;
      t.on_wire <- t.on_wire + 1;
      let tx = p.Packet.size /. t.rate in
      ignore
        (Sim.Engine.schedule t.eng ~delay:tx (fun () ->
             t.is_busy <- false;
             t.busy_time <- t.busy_time +. tx;
             t.tx_bits <- t.tx_bits +. p.Packet.size;
             t.tx_packets <- t.tx_packets + 1;
             ignore
               (Sim.Engine.schedule t.eng ~delay:t.prop_delay (fun () ->
                    arrive t p));
             kick t))

let send t p =
  if not t.up then `Dropped
  else
    let r =
      match t.q with
      | Q_fifo f -> Chunksim.Fifo.push f p
      | Q_drr d -> Chunksim.Rr_queue.push d ~class_id:(Packet.flow p) p
    in
    if r = `Queued then kick t;
    r

let queue_occupancy t =
  match t.q with
  | Q_fifo f -> Chunksim.Fifo.occupancy f
  | Q_drr d -> Chunksim.Rr_queue.occupancy d

let drops t =
  match t.q with
  | Q_fifo f -> Chunksim.Fifo.total_dropped f
  | Q_drr d -> Chunksim.Rr_queue.total_dropped d

let busy t = t.is_busy
let utilisation t ~now = if now <= 0. then 0. else t.busy_time /. now
let tx_bits t = t.tx_bits
let tx_packets t = t.tx_packets
let fault_drops t = t.fault_drops
let set_fault_tap t f = t.fault_tap <- f

(* everything popped — on the wire or still serialising — dies at its
   arrival instant *)
let set_down ?(policy = `Drop_queued) t =
  if t.up then begin
    t.up <- false;
    t.kill <- t.on_wire;
    match policy with
    | `Hold_queued -> ()
    | `Drop_queued ->
      let rec flush () =
        match pop t with
        | Some p ->
          t.fault_drops <- t.fault_drops + 1;
          t.fault_tap p;
          flush ()
        | None -> ()
      in
      flush ()
  end

let set_up t =
  if not t.up then begin
    t.up <- true;
    kick t
  end

module Packet = Chunksim.Packet
module Net = Chunksim.Net

type flow_state = {
  spec : Inrpp.Protocol.flow_spec;
  sess : Inrpp.Session.t;
  wire : int;
  path : Topology.Path.t;
  outstanding : (int, float) Hashtbl.t;
  retry : int Queue.t;
  retry_set : (int, unit) Hashtbl.t;
  mutable rate : float;          (* assigned fair rate, bps *)
  mutable next_seq : int;
  mutable started : float option;
  mutable finished : bool;
  mutable pacing_armed : bool;
  mutable retx : int;
}

let max_outstanding = 512

let run ?chunk_bits ?queue_bits ?horizon ?(update_interval = 0.05) ?obs
    ?faults g specs =
  if update_interval <= 0. then invalid_arg "Rcp.run: update_interval <= 0";
  let r =
    Harness.start ~protocol:"RCP" ~paths_per_flow:1 ?chunk_bits ?queue_bits
      ?horizon ?obs ?faults g specs
  in
  let chunk_bits = r.Harness.chunk_bits in
  let eng = r.Harness.eng in
  let states =
    Array.mapi
      (fun i spec ->
        {
          spec;
          sess =
            Inrpp.Session.create ~total_chunks:spec.Inrpp.Protocol.chunks;
          wire = r.Harness.wire_ids.(i).(0);
          path = r.Harness.paths.(i).(0);
          outstanding = Hashtbl.create 32;
          retry = Queue.create ();
          retry_set = Hashtbl.create 8;
          rate = chunk_bits *. 10.;  (* modest initial rate *)
          next_seq = 0;
          started = None;
          finished = false;
          pacing_armed = false;
          retx = 0;
        })
      r.Harness.specs
  in
  (* explicit rate feedback: max-min share among active flows *)
  let update_rates () =
    let active =
      Array.to_list states
      |> List.filter (fun st -> st.started <> None && not st.finished)
    in
    match active with
    | [] -> ()
    | _ ->
      let demands =
        Array.of_list (List.map (fun st -> (st.path, infinity)) active)
      in
      let rates = Flowsim.Allocation.max_min g demands in
      List.iteri
        (fun j st -> st.rate <- Float.max (chunk_bits /. 1.) rates.(j))
        active
  in
  let next_chunk st =
    let rec from_retry () =
      match Queue.take_opt st.retry with
      | Some idx ->
        Hashtbl.remove st.retry_set idx;
        if Inrpp.Session.next_needed st.sess > idx then from_retry ()
        else Some idx
      | None ->
        let rec fresh () =
          if st.next_seq >= Inrpp.Session.total st.sess then None
          else begin
            let idx = st.next_seq in
            st.next_seq <- idx + 1;
            if Inrpp.Session.next_needed st.sess > idx then fresh ()
            else Some idx
          end
        in
        fresh ()
    in
    from_retry ()
  in
  let send_request st idx =
    Hashtbl.replace st.outstanding idx (Sim.Engine.now eng);
    Net.inject r.Harness.net ~at:st.spec.Inrpp.Protocol.dst
      (Packet.request ~flow:st.wire ~nc:idx
         ~ack:(Inrpp.Session.next_needed st.sess)
         ~ac:idx)
  in
  (* request pacing at the assigned rate *)
  let rec pace st =
    if (not st.finished) && not st.pacing_armed then begin
      st.pacing_armed <- true;
      let gap = chunk_bits /. st.rate in
      ignore
        (Sim.Engine.schedule eng ~delay:gap (fun () ->
             st.pacing_armed <- false;
             if not st.finished then begin
               if Hashtbl.length st.outstanding < max_outstanding then begin
                 match next_chunk st with
                 | Some idx -> send_request st idx
                 | None -> ()
               end;
               pace st
             end))
    end
  in
  (* loss recovery: conservative fixed check *)
  let rec check_timeouts st =
    if not st.finished then begin
      let now = Sim.Engine.now eng in
      let expired =
        Hashtbl.fold
          (fun idx t0 acc -> if now -. t0 > 0.5 then idx :: acc else acc)
          st.outstanding []
      in
      List.iter
        (fun idx ->
          Hashtbl.remove st.outstanding idx;
          if not (Hashtbl.mem st.retry_set idx) then begin
            Hashtbl.replace st.retry_set idx ();
            Queue.add idx st.retry;
            st.retx <- st.retx + 1
          end)
        expired;
      ignore (Sim.Engine.schedule eng ~delay:0.1 (fun () -> check_timeouts st))
    end
  in
  Harness.on_data r (fun ~flow ~subflow:_ p ->
      let st = states.(flow) in
      match p.Packet.header with
      | Packet.Data { idx; _ } when not st.finished -> (
        Hashtbl.remove st.outstanding idx;
        match Inrpp.Session.receive st.sess idx with
        | `New ->
          if Inrpp.Session.is_complete st.sess then begin
            st.finished <- true;
            let now = Sim.Engine.now eng in
            let fct =
              match st.started with
              | Some t0 -> now -. t0
              | None -> now
            in
            Harness.complete r flow ~fct
          end
        | `Duplicate -> ())
      | _ -> ());
  (* observability: RCP's assigned-rate series beside the shared ones *)
  Harness.observe_flows r
    ~received:(fun i -> Inrpp.Session.received_count states.(i).sess)
    (fun i ~metric ~series ->
      let st = states.(i) in
      metric "rcp_retransmissions_total" (fun () -> float_of_int st.retx);
      series "rcp_rate_bps" (fun () -> st.rate));
  (* rate feedback loop *)
  ignore
  @@ Sim.Engine.schedule_periodic eng ~interval:update_interval (fun () ->
         update_rates ();
         not (Harness.all_complete r));
  (* flow starts *)
  Array.iter
    (fun st ->
      ignore
        (Sim.Engine.schedule eng ~delay:st.spec.Inrpp.Protocol.start (fun () ->
             st.started <- Some (Sim.Engine.now eng);
             update_rates ();
             pace st;
             check_timeouts st)))
    states;
  Harness.finish r ~retransmissions:(fun () ->
      Array.fold_left (fun acc st -> acc + st.retx) 0 states)

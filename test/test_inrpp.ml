(* Tests for the INRPP protocol: config, session bookkeeping, the
   rate estimator (eq. 1), the phase machine, flowlets, detour tables,
   and full protocol runs exercising push/detour/back-pressure. *)

let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_default_valid () =
  match Inrpp.Config.validate Inrpp.Config.default with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

let test_config_rejections () =
  let bad f =
    match Inrpp.Config.validate (f Inrpp.Config.default) with
    | Ok _ -> Alcotest.fail "accepted invalid config"
    | Error _ -> ()
  in
  bad (fun c -> { c with Inrpp.Config.chunk_bits = 0. });
  bad (fun c -> { c with Inrpp.Config.anticipation = -1 });
  bad (fun c -> { c with Inrpp.Config.engage_ratio = 0.5; release_ratio = 0.6 });
  bad (fun c -> { c with Inrpp.Config.cache_low_water = 0.9 });
  bad (fun c -> { c with Inrpp.Config.speed_factor = 1.5 });
  bad (fun c -> { c with Inrpp.Config.ti = 0. });
  bad (fun c -> { c with Inrpp.Config.flowlet_gap = -1. });
  bad (fun c -> { c with Inrpp.Config.pitless = true; icn_caching = true })

let test_config_chunk_tx_time () =
  check_close "80kb at 10Mbps" 1e-12 8e-3
    (Inrpp.Config.chunk_tx_time Inrpp.Config.default ~rate:10e6)

(* ------------------------------------------------------------------ *)
(* Flow table *)

module Ft = Inrpp.Flow_table

let ft_install_release () =
  let t = Ft.create ~gap:0.5 () in
  Alcotest.(check int) "empty find" (-1) (Ft.find t 7);
  Alcotest.(check int) "empty live" 0 (Ft.live t);
  let s = Ft.install t ~flow:7 ~content:42 ~data_link:3 ~req_link:(-1) in
  Alcotest.(check int) "find" s (Ft.find t 7);
  Alcotest.(check int) "flow_of inverts" 7 (Ft.flow_of t s);
  Alcotest.(check int) "content" 42 (Ft.content t s);
  Alcotest.(check int) "data link" 3 (Ft.data_link t s);
  Alcotest.(check int) "req link (none)" (-1) (Ft.req_link t s);
  Alcotest.(check int) "live" 1 (Ft.live t);
  Alcotest.(check int) "peak" 1 (Ft.peak t);
  Ft.set_links t s ~data_link:5 ~req_link:2;
  Alcotest.(check int) "links update" 5 (Ft.data_link t s);
  Ft.release t ~flow:7;
  Alcotest.(check int) "released find" (-1) (Ft.find t 7);
  Alcotest.(check int) "live back to 0" 0 (Ft.live t);
  Alcotest.(check int) "peak sticks" 1 (Ft.peak t);
  Alcotest.(check int) "recycled" 1 (Ft.recycled t);
  Ft.release t ~flow:7 (* no-op *);
  Alcotest.(check int) "double release no-ops" 1 (Ft.recycled t);
  Alcotest.(check bool) "bytes accounted" true (Ft.approx_bytes t > 0)

let ft_slot_recycling () =
  let t = Ft.create ~gap:0.5 () in
  let slots =
    List.init 8 (fun f ->
        Ft.install t ~flow:f ~content:f ~data_link:(-1) ~req_link:(-1))
  in
  Alcotest.(check int) "peak 8" 8 (Ft.peak t);
  List.iter (fun f -> Ft.release t ~flow:f) [ 2; 5 ];
  let s9 = Ft.install t ~flow:99 ~content:99 ~data_link:(-1) ~req_link:(-1) in
  (* the free list hands a released slot to the new flow *)
  Alcotest.(check bool) "freed slot reused" true
    (List.mem s9 [ List.nth slots 2; List.nth slots 5 ]);
  Alcotest.(check int) "peak unchanged by reuse" 8 (Ft.peak t);
  Alcotest.(check int) "live" 7 (Ft.live t)

let ft_reinstall_semantics () =
  let t = Ft.create ~gap:0.5 () in
  let s = Ft.install t ~flow:3 ~content:1 ~data_link:4 ~req_link:4 in
  Ft.set_bp_local t s true;
  Ft.set_failed_over t s true;
  (* pin the flowlet, then reinstall: slot and pin survive, links and
     flags reset *)
  let pinned = Ft.flowlet_choose t s ~now:1.0 ~preferred:(Ft.Via 2) in
  Alcotest.(check bool) "pin taken" true (pinned = Ft.Via 2);
  let s' = Ft.install t ~flow:3 ~content:8 ~data_link:(-1) ~req_link:(-1) in
  Alcotest.(check int) "reinstall keeps slot" s s';
  Alcotest.(check int) "content reset" 8 (Ft.content t s');
  Alcotest.(check bool) "bp flag reset" false (Ft.bp_local t s');
  Alcotest.(check bool) "failover flag reset" false (Ft.failed_over t s');
  Alcotest.(check bool) "flowlet pin survives (within gap)" true
    (Ft.flowlet_choose t s' ~now:1.1 ~preferred:Ft.Primary = Ft.Via 2);
  Alcotest.(check int) "reinstall is not a release" 0 (Ft.recycled t)

let ft_flags =
  [
    ("bp_local", Ft.bp_local, Ft.set_bp_local);
    ("bp_forwarded", Ft.bp_forwarded, Ft.set_bp_forwarded);
    ("detour_override", Ft.detour_override, Ft.set_detour_override);
    ("bp_outage", Ft.bp_outage, Ft.set_bp_outage);
    ("failed_over", Ft.failed_over, Ft.set_failed_over);
  ]

let ft_flags_roundtrip () =
  let t = Ft.create ~gap:0.5 () in
  let s = Ft.install t ~flow:0 ~content:0 ~data_link:(-1) ~req_link:(-1) in
  List.iter
    (fun (name, get, set) ->
      Alcotest.(check bool) (name ^ " starts clear") false (get t s);
      set t s true;
      Alcotest.(check bool) (name ^ " sets") true (get t s);
      (* the other flags must be independent bits *)
      List.iter
        (fun (n2, g2, _) ->
          if n2 <> name then
            Alcotest.(check bool) (name ^ " leaves " ^ n2) false (g2 t s))
        ft_flags;
      set t s false;
      Alcotest.(check bool) (name ^ " clears") false (get t s))
    ft_flags

let test_ft_invalid_args () =
  Alcotest.check_raises "negative gap"
    (Invalid_argument "Flow_table.create: gap < 0") (fun () ->
      ignore (Ft.create ~gap:(-1.) () : Ft.t));
  let t = Ft.create ~gap:0.5 () in
  Alcotest.check_raises "negative flow"
    (Invalid_argument "Flow_table.install: flow < 0") (fun () ->
      ignore (Ft.install t ~flow:(-1) ~content:0 ~data_link:0 ~req_link:0))

(* Reference model: per-flow state as the plain record-per-flow
   hashtable the compacted table replaced, with the flowlet pins in a
   second table keyed by flow id that a reinstall keeps and a release
   forgets.  The model has no slots; it is fed the same install/release
   keys as the table, so its hashtable iteration order is the one
   {!Ft.iter} must reproduce. *)
module Ref = struct
  type entry = {
    content : int;
    mutable data_link : int;
    mutable req_link : int;
    flags : bool array; (* indexed like [ft_flags] *)
  }

  type t = {
    gap : float;
    flows : (int, entry) Hashtbl.t;
    pins : (int, Ft.route * float) Hashtbl.t; (* flow -> route, last *)
    mutable peak : int;
    mutable recycled : int;
  }

  let create ~gap =
    { gap; flows = Hashtbl.create 16; pins = Hashtbl.create 16; peak = 0;
      recycled = 0 }

  let install t ~flow ~content ~data_link ~req_link =
    Hashtbl.replace t.flows flow
      { content; data_link; req_link; flags = Array.make 5 false };
    t.peak <- max t.peak (Hashtbl.length t.flows)

  let release t ~flow =
    if Hashtbl.mem t.flows flow then begin
      Hashtbl.remove t.flows flow;
      Hashtbl.remove t.pins flow;
      t.recycled <- t.recycled + 1
    end

  let choose t ~flow ~now ~preferred =
    let route =
      match Hashtbl.find_opt t.pins flow with
      | Some (pinned, last) when now -. last <= t.gap -> pinned
      | Some _ | None -> preferred
    in
    Hashtbl.replace t.pins flow (route, now);
    route
end

type ft_op =
  | Install of int * int * int * int (* flow, content, data, req *)
  | Release of int
  | Set_links of int * int * int
  | Set_flag of int * int * bool (* flow, index into [ft_flags] *)
  | Choose of int * float * Ft.route (* flow, idle time, preferred *)

let ft_flows = 10
let ft_gap = 0.5

let pp_route = function
  | Ft.Primary -> "Primary"
  | Ft.Via v -> Printf.sprintf "Via %d" v

let pp_ft_op = function
  | Install (f, c, d, r) -> Printf.sprintf "install %d c=%d d=%d r=%d" f c d r
  | Release f -> Printf.sprintf "release %d" f
  | Set_links (f, d, r) -> Printf.sprintf "set_links %d d=%d r=%d" f d r
  | Set_flag (f, k, v) ->
    let name, _, _ = List.nth ft_flags k in
    Printf.sprintf "set_%s %d %b" name f v
  | Choose (f, dt, p) -> Printf.sprintf "choose %d +%g %s" f dt (pp_route p)

let gen_ft_op =
  let open QCheck.Gen in
  let flow = int_bound (ft_flows - 1) and link = int_range (-1) 5 in
  frequency
    [
      ( 4,
        map4 (fun f c d r -> Install (f, c, d, r)) flow (int_bound 99) link link
      );
      (3, map (fun f -> Release f) flow);
      (2, map3 (fun f d r -> Set_links (f, d, r)) flow link link);
      (4, map3 (fun f k v -> Set_flag (f, k, v)) flow (int_bound 4) bool);
      ( 4,
        map3
          (fun f dt p -> Choose (f, dt, p))
          flow
          (* idle times straddling the gap, the gap itself included *)
          (oneofl [ 0.; 0.25 *. ft_gap; ft_gap; 1.5 *. ft_gap; 3. *. ft_gap ])
          (oneof [ return Ft.Primary; map (fun v -> Ft.Via v) (int_bound 3) ])
      );
    ]

(* after every op: each read, find/flow_of, iter order (and distinct
   live slots), live, peak and recycled agree with the model *)
let ft_agrees t (m : Ref.t) =
  let ok = ref true in
  let expect b = if not b then ok := false in
  for flow = 0 to ft_flows - 1 do
    let slot = Ft.find t flow in
    match Hashtbl.find_opt m.Ref.flows flow with
    | None -> expect (slot = -1)
    | Some e ->
      expect (slot >= 0);
      if slot >= 0 then begin
        expect (Ft.flow_of t slot = flow);
        expect (Ft.content t slot = e.Ref.content);
        expect (Ft.data_link t slot = e.Ref.data_link);
        expect (Ft.req_link t slot = e.Ref.req_link);
        List.iteri
          (fun k (_, get, _) -> expect (get t slot = e.Ref.flags.(k)))
          ft_flags
      end
  done;
  let order = ref [] and slots = ref [] in
  Ft.iter t (fun flow slot ->
      order := flow :: !order;
      slots := slot :: !slots;
      expect (Ft.find t flow = slot));
  let ref_order = ref [] in
  Hashtbl.iter (fun flow _ -> ref_order := flow :: !ref_order) m.Ref.flows;
  expect (!order = !ref_order);
  expect (List.length (List.sort_uniq compare !slots) = List.length !slots);
  expect (Ft.live t = Hashtbl.length m.Ref.flows);
  expect (Ft.peak t = m.Ref.peak);
  expect (Ft.recycled t = m.Ref.recycled);
  !ok

(* apply one op to table and model alike; a flowlet choice must agree *)
let ft_step t (m : Ref.t) now op =
  let slot f = Ft.find t f in
  let entry f = Hashtbl.find_opt m.Ref.flows f in
  match op with
  | Install (flow, content, data_link, req_link) ->
    ignore (Ft.install t ~flow ~content ~data_link ~req_link : int);
    Ref.install m ~flow ~content ~data_link ~req_link;
    true
  | Release flow ->
    Ft.release t ~flow;
    Ref.release m ~flow;
    true
  | Set_links (f, data_link, req_link) -> (
    match entry f with
    | None -> true
    | Some e ->
      Ft.set_links t (slot f) ~data_link ~req_link;
      e.Ref.data_link <- data_link;
      e.Ref.req_link <- req_link;
      true)
  | Set_flag (f, k, v) -> (
    match entry f with
    | None -> true
    | Some e ->
      let _, _, set = List.nth ft_flags k in
      set t (slot f) v;
      e.Ref.flags.(k) <- v;
      true)
  | Choose (f, dt, preferred) -> (
    now := !now +. dt;
    match entry f with
    | None -> true
    | Some _ ->
      Ft.flowlet_choose t (slot f) ~now:!now ~preferred
      = Ref.choose m ~flow:f ~now:!now ~preferred)

let prop_ft_reference_model =
  QCheck.Test.make ~name:"reference model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_ft_op ops))
       QCheck.Gen.(list_size (int_bound 200) gen_ft_op))
    (fun ops ->
      let t = Ft.create ~gap:ft_gap () and m = Ref.create ~gap:ft_gap in
      let now = ref 0. in
      List.for_all (fun op -> ft_step t m now op && ft_agrees t m) ops)

(* The scenarios of the unit tests above, replayed against the
   record-per-flow semantics of the old legacy layout (the [Ref]
   model): the table must agree with it after every step, so each
   scenario is pinned to those semantics as well as to its own
   expectations. *)
let ft_legacy_replay ops () =
  let t = Ft.create ~gap:ft_gap () and m = Ref.create ~gap:ft_gap in
  let now = ref 0. in
  List.iter
    (fun op ->
      Alcotest.(check bool) (pp_ft_op op) true (ft_step t m now op);
      Alcotest.(check bool) (pp_ft_op op ^ ": agrees") true (ft_agrees t m))
    ops

let ft_legacy_install_release =
  ft_legacy_replay
    [ Install (7, 42, 3, -1); Set_links (7, 5, 2); Release 7; Release 7;
      Install (7, 1, -1, 4) ]

let ft_legacy_slot_recycling =
  ft_legacy_replay
    (List.init 8 (fun f -> Install (f, f, -1, -1))
    @ [ Release 2; Release 5; Install (9, 9, -1, -1); Install (2, 2, 1, 1) ])

let ft_legacy_reinstall_semantics =
  ft_legacy_replay
    [ Install (3, 1, 4, 4); Set_flag (3, 0, true); Set_flag (3, 4, true);
      Choose (3, 1.0, Ft.Via 2); Install (3, 8, -1, -1);
      Choose (3, 0.1, Ft.Primary); Release 3; Install (3, 8, -1, -1);
      Choose (3, 0.1, Ft.Primary) ]

let ft_legacy_flag_bits =
  ft_legacy_replay
    (Install (0, 0, -1, -1)
     :: List.concat
          (List.init (List.length ft_flags) (fun k ->
               [ Set_flag (0, k, true); Set_flag (0, k, false) ])))

(* ------------------------------------------------------------------ *)
(* Session *)

let test_session_in_order () =
  let s = Inrpp.Session.create ~total_chunks:3 in
  Alcotest.(check int) "needs 0" 0 (Inrpp.Session.next_needed s);
  Alcotest.(check bool) "new" true (Inrpp.Session.receive s 0 = `New);
  Alcotest.(check bool) "dup" true (Inrpp.Session.receive s 0 = `Duplicate);
  ignore (Inrpp.Session.receive s 1);
  ignore (Inrpp.Session.receive s 2);
  Alcotest.(check bool) "complete" true (Inrpp.Session.is_complete s);
  Alcotest.(check int) "next = total" 3 (Inrpp.Session.next_needed s)

let test_session_out_of_order () =
  let s = Inrpp.Session.create ~total_chunks:5 in
  ignore (Inrpp.Session.receive s 3);
  ignore (Inrpp.Session.receive s 1);
  Alcotest.(check int) "still needs 0" 0 (Inrpp.Session.next_needed s);
  Alcotest.(check int) "highest" 3 (Inrpp.Session.highest_received s);
  ignore (Inrpp.Session.receive s 0);
  Alcotest.(check int) "skips received 1" 2 (Inrpp.Session.next_needed s);
  Alcotest.(check (list int)) "missing below 5" [ 2; 4 ]
    (Inrpp.Session.missing_below s 5);
  Alcotest.(check int) "count" 3 (Inrpp.Session.received_count s)

let test_session_bounds () =
  let s = Inrpp.Session.create ~total_chunks:2 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Session.receive: chunk 2 outside [0,2)") (fun () ->
      ignore (Inrpp.Session.receive s 2))

(* ------------------------------------------------------------------ *)
(* Rate estimator *)

let test_estimator_converges () =
  let e = Inrpp.Rate_estimator.create ~ti:0.1 ~alpha:0.5 ~capacity:1e6 in
  (* 50 kbit predicted per 0.1 s interval = 500 kbps steady demand *)
  for _ = 1 to 20 do
    for _ = 1 to 5 do
      Inrpp.Rate_estimator.note_request e ~expected_bits:1e4
    done;
    Inrpp.Rate_estimator.tick e
  done;
  check_close "ra converged" 1e3 5e5 (Inrpp.Rate_estimator.anticipated_rate e);
  check_close "ratio" 1e-2 0.5 (Inrpp.Rate_estimator.ratio e);
  Alcotest.(check int) "intervals" 20 (Inrpp.Rate_estimator.intervals e)

let test_estimator_transit_counts () =
  let e = Inrpp.Rate_estimator.create ~ti:1. ~alpha:1. ~capacity:1e6 in
  Inrpp.Rate_estimator.note_request e ~expected_bits:3e5;
  Inrpp.Rate_estimator.note_transit e ~bits:2e5;
  Inrpp.Rate_estimator.tick e;
  check_close "both counted" 1e-6 5e5 (Inrpp.Rate_estimator.anticipated_rate e)

let test_estimator_decays () =
  let e = Inrpp.Rate_estimator.create ~ti:1. ~alpha:0.5 ~capacity:1e6 in
  Inrpp.Rate_estimator.note_request e ~expected_bits:1e6;
  Inrpp.Rate_estimator.tick e;
  let first = Inrpp.Rate_estimator.anticipated_rate e in
  Inrpp.Rate_estimator.tick e;
  Inrpp.Rate_estimator.tick e;
  Alcotest.(check bool) "decays toward zero" true
    (Inrpp.Rate_estimator.anticipated_rate e < first /. 2.)

let test_shares_eq1 () =
  let s = Inrpp.Rate_estimator.Shares.create ~ifaces:3 in
  (* iface 0 forwarded 3 requests to iface 1 and 1 to iface 2 *)
  for _ = 1 to 3 do
    Inrpp.Rate_estimator.Shares.note s ~from_iface:0 ~to_iface:1
  done;
  Inrpp.Rate_estimator.Shares.note s ~from_iface:0 ~to_iface:2;
  check_close "y(0->1)" 1e-9 0.75
    (Inrpp.Rate_estimator.Shares.y s ~from_iface:0 ~to_iface:1);
  check_close "y(0->2)" 1e-9 0.25
    (Inrpp.Rate_estimator.Shares.y s ~from_iface:0 ~to_iface:2);
  check_close "empty row" 1e-9 0.
    (Inrpp.Rate_estimator.Shares.y s ~from_iface:1 ~to_iface:0);
  Inrpp.Rate_estimator.Shares.reset s;
  check_close "reset" 1e-9 0.
    (Inrpp.Rate_estimator.Shares.y s ~from_iface:0 ~to_iface:1)

(* ------------------------------------------------------------------ *)
(* Phase machine *)

let phase_mk () = Inrpp.Phase.create ~engage:0.95 ~release:0.75

let upd p ~ratio ~detour ~pressure ~drained =
  Inrpp.Phase.update p ~ratio ~detour_usable:detour ~custody_pressure:pressure
    ~custody_drained:drained

let test_phase_push_to_detour () =
  let p = phase_mk () in
  Alcotest.(check bool) "starts in push" true
    (Inrpp.Phase.current p = Inrpp.Phase.Push_data);
  let next = upd p ~ratio:1.0 ~detour:true ~pressure:false ~drained:true in
  Alcotest.(check bool) "engages detour" true (next = Inrpp.Phase.Detour)

let test_phase_push_to_bp_without_detour () =
  let p = phase_mk () in
  let next = upd p ~ratio:1.0 ~detour:false ~pressure:false ~drained:true in
  Alcotest.(check bool) "goes straight to bp" true
    (next = Inrpp.Phase.Backpressure)

let test_phase_hysteresis () =
  let p = phase_mk () in
  ignore (upd p ~ratio:1.0 ~detour:true ~pressure:false ~drained:true);
  (* a ratio between release and engage must NOT flip back *)
  let mid = upd p ~ratio:0.85 ~detour:true ~pressure:false ~drained:true in
  Alcotest.(check bool) "holds detour" true (mid = Inrpp.Phase.Detour);
  let low = upd p ~ratio:0.5 ~detour:true ~pressure:false ~drained:true in
  Alcotest.(check bool) "releases" true (low = Inrpp.Phase.Push_data);
  Alcotest.(check int) "transitions counted" 2 (Inrpp.Phase.transitions p)

let test_phase_detour_to_bp_on_pressure () =
  let p = phase_mk () in
  ignore (upd p ~ratio:1.0 ~detour:true ~pressure:false ~drained:true);
  let next = upd p ~ratio:1.0 ~detour:true ~pressure:true ~drained:false in
  Alcotest.(check bool) "custody pressure escalates" true
    (next = Inrpp.Phase.Backpressure)

let test_phase_bp_recovery () =
  let p = phase_mk () in
  ignore (upd p ~ratio:1.0 ~detour:false ~pressure:true ~drained:false);
  (* still congested, not drained: stay *)
  let still = upd p ~ratio:1.0 ~detour:false ~pressure:false ~drained:false in
  Alcotest.(check bool) "stays in bp" true (still = Inrpp.Phase.Backpressure);
  let back = upd p ~ratio:0.5 ~detour:false ~pressure:false ~drained:true in
  Alcotest.(check bool) "recovers to push" true (back = Inrpp.Phase.Push_data)

(* ------------------------------------------------------------------ *)
(* Flowlet pinning *)

let test_flowlet_pinning () =
  let t = Ft.create ~gap:0.1 () in
  let s = Ft.install t ~flow:1 ~content:0 ~data_link:(-1) ~req_link:(-1) in
  let r1 = Ft.flowlet_choose t s ~now:0. ~preferred:(Ft.Via 5) in
  Alcotest.(check bool) "first pick" true (r1 = Ft.Via 5);
  (* within the gap, preference changes are ignored *)
  let r2 = Ft.flowlet_choose t s ~now:0.05 ~preferred:Ft.Primary in
  Alcotest.(check bool) "pinned" true (r2 = Ft.Via 5);
  (* after an idle gap the flow re-pins *)
  let r3 = Ft.flowlet_choose t s ~now:0.3 ~preferred:Ft.Primary in
  Alcotest.(check bool) "re-pinned" true (r3 = Ft.Primary)

(* ------------------------------------------------------------------ *)
(* Detour table *)

let test_detour_table_candidates () =
  let g = Topology.Builders.fig3 () in
  let t = Inrpp.Detour_table.create g in
  let l13 = Option.get (Topology.Graph.find_link g 1 3) in
  (match Inrpp.Detour_table.candidates t l13 with
  | c :: _ as cs ->
    (* shortest first: the 1-intermediate detour via node 2; the
       2-intermediate 1-0-2-3 fallback follows *)
    Alcotest.(check int) "two candidates" 2 (List.length cs);
    Alcotest.(check int) "deflects to node 2" 2
      c.Inrpp.Detour_table.first_link.Topology.Link.dst;
    Alcotest.(check (list int)) "rejoins at 3" [ 3 ] c.Inrpp.Detour_table.rest;
    Alcotest.(check int) "2 hops" 2 c.Inrpp.Detour_table.hops;
    Alcotest.(check int) "2 links" 2 (List.length c.Inrpp.Detour_table.links)
  | [] -> Alcotest.fail "expected candidates");
  Alcotest.(check bool) "has detour" true (Inrpp.Detour_table.has_detour t l13)

let test_detour_table_none_on_line () =
  let g = Topology.Builders.line 3 in
  let t = Inrpp.Detour_table.create g in
  let l = Option.get (Topology.Graph.find_link g 0 1) in
  Alcotest.(check bool) "no detour on a line" false
    (Inrpp.Detour_table.has_detour t l)

(* ------------------------------------------------------------------ *)
(* Hot-path allocation budget *)

(* The protocol hot path is allocation-free past the packet itself:
   flow lookup is a dense-array read, phase/estimator/queue-limit are
   resolved once per flow, and push-data forwarding builds no
   closures.  Pin it with a per-forwarded-chunk minor-word ceiling —
   router, interface and engine included (style of the iface budget
   test in test_chunksim.ml). *)
let test_router_handler_alloc_budget () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let cfg = Inrpp.Config.default in
    let eng = Sim.Engine.create () in
    let g =
      Topology.Builders.dumbbell ~access_capacity:1e9
        ~bottleneck_capacity:1e9 1
    in
    let net = Chunksim.Net.create ~queue_bits:1e12 eng g in
    let detours = Inrpp.Detour_table.create g in
    let router = Inrpp.Router.create ~cfg ~net ~node:0 ~detours () in
    let dl = Option.get (Topology.Graph.find_link g 0 1) in
    Inrpp.Router.install_flow router ~flow:0 ~data_link:(Some dl)
      ~req_link:None ();
    Chunksim.Net.set_handler net 1 (fun ~from:_ _ -> ());
    let handle = Inrpp.Router.handler router in
    let p =
      Chunksim.Packet.data ~flow:0 ~idx:0 ~born:0. cfg.Inrpp.Config.chunk_bits
    in
    (* warm up: create the port's phase and estimator, grow rings past
       steady-state size *)
    for _ = 1 to 1_000 do
      handle ~from:None p;
      Sim.Engine.run eng
    done;
    let rounds = 10_000 in
    let before = Gc.minor_words () in
    for _ = 1 to rounds do
      handle ~from:None p;
      Sim.Engine.run eng
    done;
    let per_chunk = (Gc.minor_words () -. before) /. float_of_int rounds in
    Alcotest.(check bool)
      (Printf.sprintf "allocation per forwarded chunk (%.1f minor words)"
         per_chunk)
      true (per_chunk <= 100.)

(* ------------------------------------------------------------------ *)
(* Per-link router queries *)

(* The hub of a 4-leaf star at 1 Mbps: four out-links, four in-links,
   no detours.  Flows 0..2 take the hub's first three out-links as
   data links, installed in descending link-id order so estimators are
   created out of id order; the hub is their producer node. *)
let hub_fixture () =
  let cfg = Inrpp.Config.default in
  let eng = Sim.Engine.create () in
  let g = Topology.Builders.star ~capacity:1e6 4 in
  let net = Chunksim.Net.create eng g in
  let detours = Inrpp.Detour_table.create g in
  let router = Inrpp.Router.create ~cfg ~net ~node:0 ~detours () in
  Inrpp.Router.set_local_producer router (fun _ -> ());
  let outs = Topology.Graph.out_links g 0 in
  let used = List.rev (List.filteri (fun i _ -> i < 3) outs) in
  List.iteri
    (fun flow l ->
      Inrpp.Router.install_flow router ~flow ~data_link:(Some l)
        ~req_link:None ())
    used;
  let request flow =
    Inrpp.Router.handler router ~from:None
      (Chunksim.Packet.request ~flow ~nc:0 ~ack:0 ~ac:0)
  in
  (g, router, outs, used, request)

let link_ids ls = List.map (fun (l : Topology.Link.t) -> l.Topology.Link.id) ls

let test_router_estimator_links_sorted () =
  let _, router, _, used, request = hub_fixture () in
  Alcotest.(check (list int)) "none before traffic" []
    (Inrpp.Router.estimator_links router);
  List.iteri (fun flow _ -> request flow) used;
  Alcotest.(check (list int)) "data links, ascending"
    (List.sort Int.compare (link_ids used))
    (Inrpp.Router.estimator_links router)

let test_router_queries_none_off_port () =
  let g, router, outs, _, request = hub_fixture () in
  let none what id =
    Alcotest.(check bool)
      (Printf.sprintf "%s: phase None" what)
      true
      (Inrpp.Router.phase_of_link router id = None);
    Alcotest.(check (option (float 0.)))
      (what ^ ": ratio None") None
      (Inrpp.Router.ratio_of_link router id);
    Alcotest.(check (option (float 0.)))
      (what ^ ": anticipated rate None") None
      (Inrpp.Router.anticipated_rate_of_link router id)
  in
  let in_link = List.hd (Topology.Graph.in_links g 0) in
  let unused = List.nth outs 3 in
  let busy = List.hd outs in
  none "out-link before traffic" busy.Topology.Link.id;
  request 0;
  request 1;
  request 2;
  Inrpp.Router.tick router;
  none "in-link" in_link.Topology.Link.id;
  none "out-link with no estimator" unused.Topology.Link.id;
  none "unknown link id" (Topology.Graph.link_count g);
  let id = busy.Topology.Link.id in
  Alcotest.(check bool) "busy out-link has a phase" true
    (Inrpp.Router.phase_of_link router id <> None);
  Alcotest.(check bool) "busy out-link has a ratio" true
    (Inrpp.Router.ratio_of_link router id <> None);
  Alcotest.(check bool) "busy out-link anticipates traffic" true
    (match Inrpp.Router.anticipated_rate_of_link router id with
    | Some r -> r > 0.
    | None -> false)

let test_router_crash_clears_ports () =
  let _, router, _, _, request = hub_fixture () in
  (* 100 chunks per 40 ms interval on a 1 Mbps link: far past the
     engage ratio, and the star has no detour, so the port enters
     back-pressure on the first tick *)
  for _ = 1 to 100 do
    request 0
  done;
  request 1;
  Inrpp.Router.tick router;
  Alcotest.(check int) "two estimators" 2
    (List.length (Inrpp.Router.estimator_links router));
  Alcotest.(check bool) "a phase changed" true
    (Inrpp.Router.phase_transitions router > 0);
  Alcotest.(check (list (pair int int))) "nothing to wipe under Preserve" []
    (Inrpp.Router.crash router ~policy:`Preserve);
  Alcotest.(check (list int)) "estimators gone" []
    (Inrpp.Router.estimator_links router);
  Alcotest.(check int) "phase transitions gone" 0
    (Inrpp.Router.phase_transitions router)

(* ------------------------------------------------------------------ *)
(* Sender / Receiver unit behaviour *)

let test_sender_paced_push () =
  let eng = Sim.Engine.create () in
  let sent = ref [] in
  let cfg = Inrpp.Config.default in
  let s =
    Inrpp.Sender.create ~cfg ~eng ~flow:0 ~total_chunks:20
      ~pace_rate:(10. *. cfg.Inrpp.Config.chunk_bits) (* 10 chunks/s *)
      ~transmit:(fun p -> sent := (Sim.Engine.now eng, p) :: !sent)
      ()
  in
  (* one request invites chunks 0..4 (ac = 4) into the backlog *)
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:0 ~ack:0 ~ac:4);
  Alcotest.(check int) "first chunk sent immediately" 1 (List.length !sent);
  Alcotest.(check int) "backlog holds the rest" 4 (Inrpp.Sender.backlog s);
  Sim.Engine.run eng;
  Alcotest.(check int) "all invited chunks sent" 5 (List.length !sent);
  Alcotest.(check int) "pushed high-water" 5 (Inrpp.Sender.pushed s);
  (* pacing: consecutive sends are 0.1 s apart *)
  let times = List.rev_map fst !sent in
  let rec gaps = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check (float 1e-9)) "pace gap" 0.1 (b -. a);
      gaps rest
    | _ -> ()
  in
  gaps times

let test_sender_backpressure_mode () =
  let eng = Sim.Engine.create () in
  let sent = ref 0 in
  let cfg = Inrpp.Config.default in
  let s =
    Inrpp.Sender.create ~cfg ~eng ~flow:0 ~total_chunks:100
      ~pace_rate:(100. *. cfg.Inrpp.Config.chunk_bits)
      ~transmit:(fun _ -> incr sent)
      ()
  in
  Inrpp.Sender.handle s (Chunksim.Packet.backpressure ~flow:0 ~engage:true);
  Alcotest.(check bool) "in bp" true (Inrpp.Sender.in_backpressure s);
  (* closed loop: exactly one chunk per request, no anticipation *)
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:0 ~ack:0 ~ac:50);
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:1 ~ack:1 ~ac:51);
  Sim.Engine.run eng;
  Alcotest.(check int) "1-to-1 flow balance" 2 !sent;
  (* release resumes the open loop *)
  Inrpp.Sender.handle s (Chunksim.Packet.backpressure ~flow:0 ~engage:false);
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:2 ~ack:2 ~ac:9);
  Sim.Engine.run eng;
  Alcotest.(check int) "open loop refills to ac" 10 !sent

let test_sender_stall_retransmission () =
  let eng = Sim.Engine.create () in
  let sent = ref [] in
  let cfg = Inrpp.Config.default in
  let s =
    Inrpp.Sender.create ~cfg ~eng ~flow:0 ~total_chunks:10
      ~pace_rate:(1000. *. cfg.Inrpp.Config.chunk_bits)
      ~transmit:(fun p ->
        match p.Chunksim.Packet.header with
        | Chunksim.Packet.Data { idx; _ } -> sent := idx :: !sent
        | _ -> ())
      ()
  in
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:0 ~ack:0 ~ac:5);
  Sim.Engine.run eng;
  let before = List.length !sent in
  (* two repeats are tolerated (reordering)... *)
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:2 ~ack:2 ~ac:5);
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:2 ~ack:2 ~ac:5);
  Sim.Engine.run eng;
  Alcotest.(check int) "no retransmit yet" before (List.length !sent);
  (* ...the third identical Nc is a stall: retransmit chunk 2 *)
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:2 ~ack:2 ~ac:5);
  Sim.Engine.run eng;
  Alcotest.(check int) "retransmitted" (before + 1) (List.length !sent);
  Alcotest.(check int) "the hole chunk" 2 (List.hd !sent)

let test_receiver_flow_balance () =
  let eng = Sim.Engine.create () in
  let requests = ref [] in
  let completed = ref None in
  let cfg = Inrpp.Config.default in
  let r =
    Inrpp.Receiver.create ~cfg ~eng ~flow:0 ~total_chunks:3
      ~send_request:(fun p -> requests := p :: !requests)
      ~on_complete:(fun ~fct -> completed := Some fct)
      ()
  in
  Inrpp.Receiver.start r;
  Alcotest.(check int) "initial request" 1 (List.length !requests);
  (* each arriving chunk triggers exactly one further request *)
  Inrpp.Receiver.handle_data r
    (Chunksim.Packet.data ~flow:0 ~idx:0 ~born:0. cfg.Inrpp.Config.chunk_bits);
  Alcotest.(check int) "one per data" 2 (List.length !requests);
  Inrpp.Receiver.handle_data r
    (Chunksim.Packet.data ~flow:0 ~idx:1 ~born:0. cfg.Inrpp.Config.chunk_bits);
  Inrpp.Receiver.handle_data r
    (Chunksim.Packet.data ~flow:0 ~idx:2 ~born:0. cfg.Inrpp.Config.chunk_bits);
  Alcotest.(check bool) "completed" true (!completed <> None);
  Alcotest.(check int) "duplicates zero" 0 (Inrpp.Receiver.duplicates r);
  (* the last data needs no further request *)
  Alcotest.(check int) "no request after completion" 3 (List.length !requests)

let test_receiver_timeout_rerequests () =
  let eng = Sim.Engine.create () in
  let requests = ref 0 in
  let cfg = { Inrpp.Config.default with Inrpp.Config.request_timeout = 0.05 } in
  let r =
    Inrpp.Receiver.create ~cfg ~eng ~flow:0 ~total_chunks:5
      ~send_request:(fun _ -> incr requests)
      ~on_complete:(fun ~fct -> ignore fct)
      ()
  in
  Inrpp.Receiver.start r;
  (* nothing ever arrives: the timeout must keep re-asking *)
  Sim.Engine.run ~until:0.3 eng;
  Alcotest.(check bool)
    (Printf.sprintf "re-requested (%d requests)" !requests)
    true (!requests >= 4)

(* ------------------------------------------------------------------ *)
(* Protocol end-to-end *)

let bulk = { Inrpp.Config.default with Inrpp.Config.anticipation = 512 }

let bottleneck_graph () =
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "0" in
  let n1 = Topology.Graph.Builder.add_node b "1" in
  let n2 = Topology.Graph.Builder.add_node b "2" in
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:2e6 ~delay:2e-3 n1 n2;
  Topology.Graph.Builder.build b

let test_protocol_clean_line () =
  let g = Topology.Builders.line ~capacity:10e6 ~delay:2e-3 3 in
  let r = Inrpp.Protocol.run ~cfg:bulk g [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 200 ] in
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check int) "no drops" 0 r.Inrpp.Protocol.total_drops;
  Alcotest.(check int) "no detours on a line" 0 r.Inrpp.Protocol.detoured;
  (* 200 x 80 kbit at 10 Mbps is 1.6 s; allow protocol overhead *)
  match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
  | Some fct ->
    Alcotest.(check bool)
      (Printf.sprintf "fct %.3f near line rate" fct)
      true
      (fct > 1.5 && fct < 2.0)
  | None -> Alcotest.fail "flow unfinished"

let test_protocol_bottleneck_custody () =
  (* pushing 10 Mbps into a 2 Mbps link: custody absorbs, nothing drops,
     and the transfer finishes at bottleneck pace *)
  let g = bottleneck_graph () in
  let r = Inrpp.Protocol.run ~cfg:bulk g [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 200 ] in
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check int) "zero loss despite 5x overload" 0 r.Inrpp.Protocol.total_drops;
  Alcotest.(check bool) "custody used" true (r.Inrpp.Protocol.custody_stored > 0);
  Alcotest.(check bool) "custody bounded by store" true
    (r.Inrpp.Protocol.peak_custody_bits <= bulk.Inrpp.Config.cache_bits);
  match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
  | Some fct ->
    Alcotest.(check bool)
      (Printf.sprintf "fct %.3f near bottleneck pace (8 s ideal)" fct)
      true
      (fct > 7.5 && fct < 10.)
  | None -> Alcotest.fail "flow unfinished"

let test_protocol_backpressure_engages () =
  (* a small store forces the back-pressure phase: the congested router
     must signal upstream and the sender must enter the closed loop *)
  let g = bottleneck_graph () in
  let cfg = { bulk with Inrpp.Config.cache_bits = 20. *. bulk.Inrpp.Config.chunk_bits } in
  let r =
    Inrpp.Protocol.run ~cfg ~collect_trace:true g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 200 ]
  in
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check bool) "bp engaged" true (r.Inrpp.Protocol.bp_engages > 0);
  Alcotest.(check bool) "bp released" true (r.Inrpp.Protocol.bp_releases > 0);
  let tr = Option.get r.Inrpp.Protocol.trace in
  Alcotest.(check bool) "bp signal traced" true
    (Chunksim.Trace.count tr (function
       | Chunksim.Trace.Bp_signal { engage = true; _ } -> true
       | _ -> false)
    > 0)

let test_protocol_fig3_detours () =
  let g = Topology.Builders.fig3 () in
  let r =
    Inrpp.Protocol.run ~cfg:bulk ~collect_trace:true g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 300 ]
  in
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check bool) "detour used" true (r.Inrpp.Protocol.detoured > 50);
  (* detour + primary beat the 2 Mbps bottleneck alone: 300 chunks =
     24 Mbit; at 2 Mbps that is 12 s, with detours it must be well under *)
  (match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
  | Some fct ->
    Alcotest.(check bool)
      (Printf.sprintf "fct %.3f beats single-path 12 s" fct)
      true (fct < 9.)
  | None -> Alcotest.fail "flow unfinished");
  let tr = Option.get r.Inrpp.Protocol.trace in
  Alcotest.(check bool) "detour events traced" true
    (Chunksim.Trace.count tr (function
       | Chunksim.Trace.Detoured _ -> true
       | _ -> false)
    > 0)

let test_protocol_phase_transitions_observed () =
  let g = Topology.Builders.fig3 () in
  let r =
    Inrpp.Protocol.run ~cfg:bulk ~collect_trace:true g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 300 ]
  in
  Alcotest.(check bool) "phases changed" true (r.Inrpp.Protocol.phase_transitions > 0);
  let tr = Option.get r.Inrpp.Protocol.trace in
  let entered_detour =
    Chunksim.Trace.count tr (function
      | Chunksim.Trace.Phase_change { phase = "detour"; _ } -> true
      | _ -> false)
  in
  Alcotest.(check bool) "detour phase entered" true (entered_detour > 0)

let test_protocol_two_flows_share () =
  let g = Topology.Builders.fig3 () in
  let specs =
    [
      Inrpp.Protocol.flow_spec ~src:0 ~dst:3 150;
      Inrpp.Protocol.flow_spec ~src:0 ~dst:1 150;
    ]
  in
  let r = Inrpp.Protocol.run ~cfg:bulk g specs in
  Alcotest.(check int) "both complete" 2 r.Inrpp.Protocol.completed;
  let rates =
    Array.map
      (fun fr ->
        match fr.Inrpp.Protocol.fct with
        | Some fct ->
          float_of_int fr.Inrpp.Protocol.chunks_received
          *. bulk.Inrpp.Config.chunk_bits /. fct
        | None -> 0.)
      r.Inrpp.Protocol.flows
  in
  let jain = Metrics.Fairness.jain rates in
  Alcotest.(check bool)
    (Printf.sprintf "fair rates (jain %.3f)" jain)
    true (jain > 0.85)

let test_protocol_icn_cache_hits () =
  (* the same content fetched twice: the repeat is served on path *)
  let g = Topology.Builders.line ~capacity:10e6 ~delay:5e-3 5 in
  let cfg = { bulk with Inrpp.Config.icn_caching = true; cache_bits = 64e6 } in
  let specs =
    [
      Inrpp.Protocol.flow_spec ~content:7 ~src:0 ~dst:4 100;
      Inrpp.Protocol.flow_spec ~content:7 ~start:2. ~src:0 ~dst:4 100;
    ]
  in
  let r = Inrpp.Protocol.run ~cfg g specs in
  Alcotest.(check int) "both complete" 2 r.Inrpp.Protocol.completed;
  Alcotest.(check bool) "cache hits happened" true (r.Inrpp.Protocol.cache_hits > 50);
  match
    ( r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct,
      r.Inrpp.Protocol.flows.(1).Inrpp.Protocol.fct )
  with
  | Some first, Some repeat ->
    Alcotest.(check bool)
      (Printf.sprintf "repeat %.3f much faster than first %.3f" repeat first)
      true
      (repeat < first /. 2.)
  | _ -> Alcotest.fail "flows unfinished"

let test_protocol_icn_cache_off_by_default () =
  let g = Topology.Builders.line ~capacity:10e6 ~delay:5e-3 4 in
  let specs =
    [
      Inrpp.Protocol.flow_spec ~content:7 ~src:0 ~dst:3 50;
      Inrpp.Protocol.flow_spec ~content:7 ~start:1. ~src:0 ~dst:3 50;
    ]
  in
  let r = Inrpp.Protocol.run ~cfg:bulk g specs in
  Alcotest.(check int) "no hits without the flag" 0 r.Inrpp.Protocol.cache_hits

let test_protocol_drr_runs () =
  let g = Topology.Builders.fig3 () in
  let cfg = { bulk with Inrpp.Config.drr_scheduler = true } in
  let specs =
    [
      Inrpp.Protocol.flow_spec ~src:0 ~dst:3 150;
      Inrpp.Protocol.flow_spec ~src:0 ~dst:1 150;
    ]
  in
  let r = Inrpp.Protocol.run ~cfg g specs in
  Alcotest.(check int) "both complete under DRR" 2 r.Inrpp.Protocol.completed;
  Alcotest.(check int) "no drops" 0 r.Inrpp.Protocol.total_drops

let test_protocol_recovers_from_wire_loss () =
  let g = Topology.Builders.line ~capacity:10e6 ~delay:2e-3 4 in
  let r =
    Inrpp.Protocol.run ~cfg:bulk ~loss_rate:0.02 ~horizon:120. g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 150 ]
  in
  Alcotest.(check int) "completes despite 2% loss" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check int) "every chunk delivered" 150
    r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.chunks_received

let test_protocol_loss_is_deterministic () =
  let g = Topology.Builders.line ~capacity:10e6 ~delay:2e-3 4 in
  let run () =
    Inrpp.Protocol.run ~cfg:bulk ~loss_rate:0.03 ~horizon:120. g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 100 ]
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same fct under same loss seed" true
    (a.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct
    = b.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct)

let test_protocol_isp_multi_flow () =
  (* integration: three concurrent transfers across the VSNL ISP graph
     all complete losslessly *)
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Vsnl in
  let n = Topology.Graph.node_count g in
  let cfg =
    {
      bulk with
      Inrpp.Config.chunk_bits = 80e3;
      cache_bits = 100e6;
      queue_bits = 64. *. 80e3;
    }
  in
  let specs =
    [
      Inrpp.Protocol.flow_spec ~src:(n - 4) ~dst:(n - 1) 150;
      Inrpp.Protocol.flow_spec ~src:(n - 4) ~dst:(n - 2) 150;
      Inrpp.Protocol.flow_spec ~src:0 ~dst:(n - 3) 150;
    ]
  in
  let r = Inrpp.Protocol.run ~cfg ~horizon:30. g specs in
  Alcotest.(check int) "all complete" 3 r.Inrpp.Protocol.completed;
  Alcotest.(check int) "lossless" 0 r.Inrpp.Protocol.total_drops

let test_protocol_deterministic () =
  let g = Topology.Builders.fig3 () in
  let run () =
    Inrpp.Protocol.run ~cfg:bulk g [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 100 ]
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same fct" true
    (a.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct
    = b.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct);
  Alcotest.(check int) "same detours" a.Inrpp.Protocol.detoured
    b.Inrpp.Protocol.detoured

let test_protocol_validation () =
  let g = Topology.Builders.line 3 in
  Alcotest.check_raises "no flows" (Invalid_argument "Protocol.run: no flows")
    (fun () -> ignore (Inrpp.Protocol.run g []));
  let disconnected = Topology.Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  (match
     Inrpp.Protocol.run disconnected [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 1 ]
   with
  | _ -> Alcotest.fail "unroutable accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.check_raises "bad spec" (Invalid_argument "Protocol.flow_spec: chunks <= 0")
    (fun () -> ignore (Inrpp.Protocol.flow_spec ~src:0 ~dst:1 0))

(* Record literals bypass [flow_spec]; [run] checks every flow itself,
   naming the first bad one, before it builds anything.  One case per
   way a spec can be wrong. *)
let spec_check_cases =
  let g = Topology.Builders.dumbbell 1 in
  let ok = Inrpp.Protocol.flow_spec ~src:2 ~dst:3 10 in
  let rejects name bad reason =
    Alcotest.test_case ("spec check: " ^ name) `Quick (fun () ->
        Alcotest.check_raises name
          (Invalid_argument ("Protocol.run: flow 1: " ^ reason))
          (fun () -> ignore (Inrpp.Protocol.run g [ ok; bad ])))
  in
  [
    rejects "dst = src"
      { ok with Inrpp.Protocol.dst = ok.Inrpp.Protocol.src }
      "src = dst";
    rejects "dst outside" { ok with Inrpp.Protocol.dst = 999 }
      "dst 999 not in graph";
    rejects "src outside" { ok with Inrpp.Protocol.src = 999 }
      "src 999 not in graph";
    rejects "negative src" { ok with Inrpp.Protocol.src = -1 }
      "src -1 not in graph";
    rejects "zero chunks" { ok with Inrpp.Protocol.chunks = 0 } "chunks <= 0";
    rejects "negative start" { ok with Inrpp.Protocol.start = -1. }
      "negative start";
    rejects "NaN start" { ok with Inrpp.Protocol.start = Float.nan }
      "NaN start";
    Alcotest.test_case "spec check: flow_spec NaN start" `Quick (fun () ->
        Alcotest.check_raises "flow_spec"
          (Invalid_argument "Protocol.flow_spec: NaN start") (fun () ->
            ignore (Inrpp.Protocol.flow_spec ~start:Float.nan ~src:2 ~dst:3 10)));
    Alcotest.test_case "spec check: of_request" `Quick (fun () ->
        let r =
          { Workload.Request.start = 0.5; src = 2; dst = 3; content = 7;
            chunks = 4 }
        in
        Alcotest.(check bool)
          "same spec" true
          (Inrpp.Protocol.of_request r
          = Inrpp.Protocol.flow_spec ~start:0.5 ~content:7 ~src:2 ~dst:3 4));
  ]

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_session_next_needed_is_lowest_missing =
  QCheck.Test.make ~name:"session next_needed is the lowest missing" ~count:200
    QCheck.(pair (int_range 1 50) (list (int_range 0 49)))
    (fun (total, arrivals) ->
      let s = Inrpp.Session.create ~total_chunks:total in
      let got = Array.make total false in
      List.iter
        (fun idx ->
          if idx < total then begin
            ignore (Inrpp.Session.receive s idx);
            got.(idx) <- true
          end)
        arrivals;
      let expected =
        let rec scan i = if i >= total then total else if got.(i) then scan (i + 1) else i in
        scan 0
      in
      Inrpp.Session.next_needed s = expected)

let prop_phase_never_skips_validation =
  QCheck.Test.make ~name:"phase machine output is stable under repeats"
    ~count:200
    QCheck.(triple (float_bound_inclusive 2.) bool bool)
    (fun (ratio, detour, pressure) ->
      let p = phase_mk () in
      let a = upd p ~ratio ~detour ~pressure ~drained:(not pressure) in
      let b = upd p ~ratio ~detour ~pressure ~drained:(not pressure) in
      (* a second identical update never changes the phase again, except
         the legal Detour -> Backpressure escalation under pressure *)
      a = b || (a = Inrpp.Phase.Detour && b = Inrpp.Phase.Backpressure))

let prop_session_any_permutation_completes =
  QCheck.Test.make ~name:"session completes under any arrival order" ~count:100
    QCheck.(int_range 1 60)
    (fun n ->
      let s = Inrpp.Session.create ~total_chunks:n in
      let order = Array.init n Fun.id in
      let rng = Sim.Rng.create (Int64.of_int (n * 7919)) in
      Sim.Rng.shuffle rng order;
      Array.iter (fun idx -> ignore (Inrpp.Session.receive s idx)) order;
      Inrpp.Session.is_complete s
      && Inrpp.Session.next_needed s = n
      && Inrpp.Session.received_count s = n)

let prop_protocol_completes_on_random_lines =
  QCheck.Test.make
    ~name:"single transfer completes on random line topologies" ~count:15
    QCheck.(pair (int_range 3 6) (int_range 1 50))
    (fun (hops, chunks) ->
      let g = Topology.Builders.line ~capacity:10e6 ~delay:1e-3 hops in
      let r =
        Inrpp.Protocol.run ~cfg:bulk ~horizon:120. g
          [ Inrpp.Protocol.flow_spec ~src:0 ~dst:(hops - 1) chunks ]
      in
      r.Inrpp.Protocol.completed = 1 && r.Inrpp.Protocol.total_drops = 0)

let prop_shares_are_a_distribution =
  (* eq. 1: the y_{i->j} request shares of every from-interface form a
     probability distribution over the router's outgoing interfaces *)
  QCheck.Test.make ~name:"request shares y are a distribution (eq. 1)"
    ~count:200
    QCheck.(
      pair (int_range 2 6) (small_list (pair small_nat small_nat)))
    (fun (ifaces, mix) ->
      let s = Inrpp.Rate_estimator.Shares.create ~ifaces in
      List.iter
        (fun (f, t) ->
          Inrpp.Rate_estimator.Shares.note s ~from_iface:(f mod ifaces)
            ~to_iface:(t mod ifaces))
        mix;
      let forwarded = Array.make ifaces 0 in
      List.iter
        (fun (f, _) ->
          let f = f mod ifaces in
          forwarded.(f) <- forwarded.(f) + 1)
        mix;
      let ok_from f =
        let row =
          List.init ifaces (fun t ->
              Inrpp.Rate_estimator.Shares.y s ~from_iface:f ~to_iface:t)
        in
        List.for_all (fun y -> y >= 0. && y <= 1.) row
        &&
        let sum = List.fold_left ( +. ) 0. row in
        if forwarded.(f) = 0 then sum = 0.
        else Float.abs (sum -. 1.) <= 1e-9
      in
      List.for_all ok_from (List.init ifaces Fun.id))

let prop_estimator_converges_under_stationary_mix =
  (* constant per-interval demand: the EWMA follows the closed form
     ra_k = inst * (1 - (1-alpha)^k), stays below the instantaneous
     rate and converges to it *)
  QCheck.Test.make ~name:"estimator converges under a stationary mix"
    ~count:200
    QCheck.(triple (int_range 1 20) (int_range 1 1000) (int_range 1 120))
    (fun (a20, kbits, ticks) ->
      let alpha = float_of_int a20 /. 20. in
      let bits = float_of_int kbits *. 1000. in
      let ti = 0.04 in
      let est = Inrpp.Rate_estimator.create ~ti ~alpha ~capacity:10e6 in
      for _ = 1 to ticks do
        Inrpp.Rate_estimator.note_request est ~expected_bits:bits;
        Inrpp.Rate_estimator.tick est
      done;
      let inst = bits /. ti in
      let ra = Inrpp.Rate_estimator.anticipated_rate est in
      let closed = inst *. (1. -. ((1. -. alpha) ** float_of_int ticks)) in
      Inrpp.Rate_estimator.intervals est = ticks
      && Float.abs (ra -. closed) <= 1e-6 *. inst
      && ra <= inst *. (1. +. 1e-12)
      && (* convergence: (1-alpha)^k <= 3e-8 for alpha >= 1/4, k >= 60 *)
      (alpha < 0.25 || ticks < 60 || Float.abs (ra -. inst) <= 1e-5 *. inst))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "inrpp"
    [
      ( "config",
        [
          Alcotest.test_case "default valid" `Quick test_config_default_valid;
          Alcotest.test_case "rejections" `Quick test_config_rejections;
          Alcotest.test_case "chunk tx time" `Quick test_config_chunk_tx_time;
        ] );
      ( "flow table",
        [
          Alcotest.test_case "soa: install/release" `Quick ft_install_release;
          Alcotest.test_case "soa: slot recycling" `Quick ft_slot_recycling;
          Alcotest.test_case "soa: reinstall semantics" `Quick
            ft_reinstall_semantics;
          Alcotest.test_case "soa: flag bits" `Quick ft_flags_roundtrip;
          Alcotest.test_case "legacy: install/release" `Quick
            ft_legacy_install_release;
          Alcotest.test_case "legacy: slot recycling" `Quick
            ft_legacy_slot_recycling;
          Alcotest.test_case "legacy: reinstall semantics" `Quick
            ft_legacy_reinstall_semantics;
          Alcotest.test_case "legacy: flag bits" `Quick ft_legacy_flag_bits;
          Alcotest.test_case "invalid args" `Quick test_ft_invalid_args;
          QCheck_alcotest.to_alcotest prop_ft_reference_model;
        ] );
      ( "session",
        [
          Alcotest.test_case "in order" `Quick test_session_in_order;
          Alcotest.test_case "out of order" `Quick test_session_out_of_order;
          Alcotest.test_case "bounds" `Quick test_session_bounds;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "converges" `Quick test_estimator_converges;
          Alcotest.test_case "transit counts" `Quick test_estimator_transit_counts;
          Alcotest.test_case "decays" `Quick test_estimator_decays;
          Alcotest.test_case "eq.1 shares" `Quick test_shares_eq1;
        ] );
      ( "phase",
        [
          Alcotest.test_case "push to detour" `Quick test_phase_push_to_detour;
          Alcotest.test_case "push to bp" `Quick test_phase_push_to_bp_without_detour;
          Alcotest.test_case "hysteresis" `Quick test_phase_hysteresis;
          Alcotest.test_case "pressure escalation" `Quick test_phase_detour_to_bp_on_pressure;
          Alcotest.test_case "bp recovery" `Quick test_phase_bp_recovery;
        ] );
      ("flowlet", [ Alcotest.test_case "pinning" `Quick test_flowlet_pinning ]);
      ( "detour table",
        [
          Alcotest.test_case "fig3 candidates" `Quick test_detour_table_candidates;
          Alcotest.test_case "line has none" `Quick test_detour_table_none_on_line;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "handler alloc budget" `Quick
            test_router_handler_alloc_budget;
        ] );
      ( "router ports",
        [
          Alcotest.test_case "estimator links sorted" `Quick
            test_router_estimator_links_sorted;
          Alcotest.test_case "queries None off port" `Quick
            test_router_queries_none_off_port;
          Alcotest.test_case "crash clears ports" `Quick
            test_router_crash_clears_ports;
        ] );
      ( "endpoints",
        [
          Alcotest.test_case "sender paced push" `Quick test_sender_paced_push;
          Alcotest.test_case "sender backpressure mode" `Quick test_sender_backpressure_mode;
          Alcotest.test_case "sender stall retransmission" `Quick test_sender_stall_retransmission;
          Alcotest.test_case "receiver flow balance" `Quick test_receiver_flow_balance;
          Alcotest.test_case "receiver timeout" `Quick test_receiver_timeout_rerequests;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "clean line" `Quick test_protocol_clean_line;
          Alcotest.test_case "bottleneck custody" `Quick test_protocol_bottleneck_custody;
          Alcotest.test_case "backpressure engages" `Quick test_protocol_backpressure_engages;
          Alcotest.test_case "fig3 detours" `Quick test_protocol_fig3_detours;
          Alcotest.test_case "phase transitions" `Quick test_protocol_phase_transitions_observed;
          Alcotest.test_case "two flows share" `Quick test_protocol_two_flows_share;
          Alcotest.test_case "icn cache hits" `Quick test_protocol_icn_cache_hits;
          Alcotest.test_case "icn cache off by default" `Quick test_protocol_icn_cache_off_by_default;
          Alcotest.test_case "drr scheduler runs" `Quick test_protocol_drr_runs;
          Alcotest.test_case "recovers from wire loss" `Quick test_protocol_recovers_from_wire_loss;
          Alcotest.test_case "loss determinism" `Quick test_protocol_loss_is_deterministic;
          Alcotest.test_case "isp multi-flow integration" `Quick test_protocol_isp_multi_flow;
          Alcotest.test_case "deterministic" `Quick test_protocol_deterministic;
          Alcotest.test_case "validation" `Quick test_protocol_validation;
        ]
        @ spec_check_cases );
      ( "properties",
        qc
          [
            prop_session_next_needed_is_lowest_missing;
            prop_phase_never_skips_validation;
            prop_session_any_permutation_completes;
            prop_protocol_completes_on_random_lines;
            prop_shares_are_a_distribution;
            prop_estimator_converges_under_stationary_mix;
          ] );
    ]

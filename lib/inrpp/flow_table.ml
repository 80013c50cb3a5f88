(* Two layouts behind one slot interface — see the .mli for the
   contract.  The SoA arrays grow by doubling and never shrink; a
   released slot is threaded onto a free list through [so_flow_of]
   (live slots hold the flow id >= 0, free slots hold [-2 - next] so
   the encoding never collides with a flow id). *)

(* flag bits, one byte per slot *)
let f_bp_local = 1
let f_bp_forwarded = 2
let f_detour_override = 4
let f_bp_outage = 8
let f_failed_over = 16

type soa = {
  so_gap : float;
  so_slots : (int, int) Hashtbl.t; (* flow -> slot; owns iteration order *)
  mutable so_flow_of : int array;  (* slot -> flow, or free-list thread *)
  mutable so_content : int array;
  mutable so_data_link : int array; (* link id, -1 = none *)
  mutable so_req_link : int array;
  mutable so_flags : Bytes.t;
  mutable so_fl_last : float array; (* unboxed; nan = no flowlet pin yet *)
  mutable so_fl_route : int array;  (* -1 = Primary, else Via node id *)
  mutable so_next : int;           (* first never-used slot *)
  mutable so_free : int;           (* free-list head, -1 = empty *)
  mutable so_peak : int;
  mutable so_recycled : int;
}

(* the PR-5 record layout, kept as the differential reference (the
   flowlet table is separate and keyed by flow id = slot) *)
type lentry = {
  le_content : int;
  mutable le_data_link : int;
  mutable le_req_link : int;
  mutable le_bp_local : bool;
  mutable le_bp_forwarded : bool;
  mutable le_detour_override : bool;
  mutable le_bp_outage : bool;
  mutable le_failed_over : bool;
}

type legacy = {
  lg_flows : (int, lentry) Hashtbl.t;
  mutable lg_arr : lentry option array;
  lg_flowlets : Flowlet.t;
  mutable lg_peak : int;
  mutable lg_recycled : int;
}

type t =
  | Soa of soa
  | Legacy of legacy

let create ~store ~gap () =
  if gap < 0. then invalid_arg "Flow_table.create: gap < 0";
  match store with
  | `Soa ->
    Soa
      {
        so_gap = gap;
        so_slots = Hashtbl.create 16;
        so_flow_of = [||];
        so_content = [||];
        so_data_link = [||];
        so_req_link = [||];
        so_flags = Bytes.empty;
        so_fl_last = [||];
        so_fl_route = [||];
        so_next = 0;
        so_free = -1;
        so_peak = 0;
        so_recycled = 0;
      }
  | `Legacy ->
    Legacy
      {
        lg_flows = Hashtbl.create 16;
        lg_arr = [||];
        lg_flowlets = Flowlet.create ~gap;
        lg_peak = 0;
        lg_recycled = 0;
      }

(* ------------------------------------------------------------------ *)
(* SoA internals *)

let soa_grow s =
  let n = Array.length s.so_flow_of in
  let m = max 16 (2 * n) in
  let grow_i a = Array.append a (Array.make (m - n) (-1)) in
  s.so_flow_of <- grow_i s.so_flow_of;
  s.so_content <- grow_i s.so_content;
  s.so_data_link <- grow_i s.so_data_link;
  s.so_req_link <- grow_i s.so_req_link;
  s.so_fl_route <- grow_i s.so_fl_route;
  let fl = Array.make m Float.nan in
  Array.blit s.so_fl_last 0 fl 0 n;
  s.so_fl_last <- fl;
  let fb = Bytes.make m '\000' in
  Bytes.blit s.so_flags 0 fb 0 n;
  s.so_flags <- fb

let soa_alloc s =
  if s.so_free >= 0 then begin
    let slot = s.so_free in
    s.so_free <- -2 - s.so_flow_of.(slot);
    slot
  end
  else begin
    if s.so_next >= Array.length s.so_flow_of then soa_grow s;
    let slot = s.so_next in
    s.so_next <- s.so_next + 1;
    slot
  end

let soa_flag s slot bit = Char.code (Bytes.unsafe_get s.so_flags slot) land bit <> 0

let soa_set_flag s slot bit v =
  let cur = Char.code (Bytes.unsafe_get s.so_flags slot) in
  let next = if v then cur lor bit else cur land lnot bit in
  Bytes.unsafe_set s.so_flags slot (Char.unsafe_chr next)

(* ------------------------------------------------------------------ *)
(* Legacy internals *)

let lentry lg slot =
  match lg.lg_arr.(slot) with
  | Some e -> e
  | None -> invalid_arg "Flow_table: dead legacy slot"

let legacy_capacity lg flow =
  let n = Array.length lg.lg_arr in
  if flow >= n then begin
    let m = ref (max 16 (2 * n)) in
    while flow >= !m do
      m := 2 * !m
    done;
    let arr = Array.make !m None in
    Array.blit lg.lg_arr 0 arr 0 n;
    lg.lg_arr <- arr
  end

(* ------------------------------------------------------------------ *)

let find t flow =
  match t with
  | Soa s -> begin
    match Hashtbl.find s.so_slots flow with
    | slot -> slot
    | exception Not_found -> -1
  end
  | Legacy lg ->
    if flow >= 0 && flow < Array.length lg.lg_arr && lg.lg_arr.(flow) <> None
    then flow
    else -1

let install t ~flow ~content ~data_link ~req_link =
  if flow < 0 then invalid_arg "Flow_table.install: flow < 0";
  match t with
  | Soa s ->
    let slot =
      match Hashtbl.find_opt s.so_slots flow with
      | Some slot -> slot (* reinstall: keep the slot and the flowlet pin *)
      | None ->
        let slot = soa_alloc s in
        Hashtbl.replace s.so_slots flow slot;
        s.so_flow_of.(slot) <- flow;
        s.so_fl_last.(slot) <- Float.nan;
        s.so_fl_route.(slot) <- -1;
        let live = Hashtbl.length s.so_slots in
        if live > s.so_peak then s.so_peak <- live;
        slot
    in
    s.so_content.(slot) <- content;
    s.so_data_link.(slot) <- data_link;
    s.so_req_link.(slot) <- req_link;
    Bytes.unsafe_set s.so_flags slot '\000';
    slot
  | Legacy lg ->
    let entry =
      {
        le_content = content;
        le_data_link = data_link;
        le_req_link = req_link;
        le_bp_local = false;
        le_bp_forwarded = false;
        le_detour_override = false;
        le_bp_outage = false;
        le_failed_over = false;
      }
    in
    Hashtbl.replace lg.lg_flows flow entry;
    legacy_capacity lg flow;
    lg.lg_arr.(flow) <- Some entry;
    let live = Hashtbl.length lg.lg_flows in
    if live > lg.lg_peak then lg.lg_peak <- live;
    flow

let release t ~flow =
  match t with
  | Soa s -> begin
    match Hashtbl.find_opt s.so_slots flow with
    | None -> ()
    | Some slot ->
      Hashtbl.remove s.so_slots flow;
      s.so_flow_of.(slot) <- -2 - s.so_free;
      s.so_free <- slot;
      s.so_recycled <- s.so_recycled + 1
  end
  | Legacy lg ->
    if flow >= 0 && flow < Array.length lg.lg_arr && lg.lg_arr.(flow) <> None
    then begin
      Hashtbl.remove lg.lg_flows flow;
      lg.lg_arr.(flow) <- None;
      Flowlet.forget lg.lg_flowlets ~flow;
      lg.lg_recycled <- lg.lg_recycled + 1
    end

let flow_of t slot =
  match t with Soa s -> s.so_flow_of.(slot) | Legacy _ -> slot

let content t slot =
  match t with
  | Soa s -> s.so_content.(slot)
  | Legacy lg -> (lentry lg slot).le_content

let data_link t slot =
  match t with
  | Soa s -> s.so_data_link.(slot)
  | Legacy lg -> (lentry lg slot).le_data_link

let req_link t slot =
  match t with
  | Soa s -> s.so_req_link.(slot)
  | Legacy lg -> (lentry lg slot).le_req_link

let set_links t slot ~data_link ~req_link =
  match t with
  | Soa s ->
    s.so_data_link.(slot) <- data_link;
    s.so_req_link.(slot) <- req_link
  | Legacy lg ->
    let e = lentry lg slot in
    e.le_data_link <- data_link;
    e.le_req_link <- req_link

let bp_local t slot =
  match t with
  | Soa s -> soa_flag s slot f_bp_local
  | Legacy lg -> (lentry lg slot).le_bp_local

let set_bp_local t slot v =
  match t with
  | Soa s -> soa_set_flag s slot f_bp_local v
  | Legacy lg -> (lentry lg slot).le_bp_local <- v

let bp_forwarded t slot =
  match t with
  | Soa s -> soa_flag s slot f_bp_forwarded
  | Legacy lg -> (lentry lg slot).le_bp_forwarded

let set_bp_forwarded t slot v =
  match t with
  | Soa s -> soa_set_flag s slot f_bp_forwarded v
  | Legacy lg -> (lentry lg slot).le_bp_forwarded <- v

let detour_override t slot =
  match t with
  | Soa s -> soa_flag s slot f_detour_override
  | Legacy lg -> (lentry lg slot).le_detour_override

let set_detour_override t slot v =
  match t with
  | Soa s -> soa_set_flag s slot f_detour_override v
  | Legacy lg -> (lentry lg slot).le_detour_override <- v

let bp_outage t slot =
  match t with
  | Soa s -> soa_flag s slot f_bp_outage
  | Legacy lg -> (lentry lg slot).le_bp_outage

let set_bp_outage t slot v =
  match t with
  | Soa s -> soa_set_flag s slot f_bp_outage v
  | Legacy lg -> (lentry lg slot).le_bp_outage <- v

let failed_over t slot =
  match t with
  | Soa s -> soa_flag s slot f_failed_over
  | Legacy lg -> (lentry lg slot).le_failed_over

let set_failed_over t slot v =
  match t with
  | Soa s -> soa_set_flag s slot f_failed_over v
  | Legacy lg -> (lentry lg slot).le_failed_over <- v

let flowlet_choose t slot ~now ~preferred =
  match t with
  | Soa s ->
    let encode = function Flowlet.Primary -> -1 | Flowlet.Via v -> v in
    let decode v = if v < 0 then Flowlet.Primary else Flowlet.Via v in
    let last = s.so_fl_last.(slot) in
    if Float.is_nan last then begin
      s.so_fl_route.(slot) <- encode preferred;
      s.so_fl_last.(slot) <- now;
      preferred
    end
    else begin
      if now -. last > s.so_gap then s.so_fl_route.(slot) <- encode preferred;
      s.so_fl_last.(slot) <- now;
      decode s.so_fl_route.(slot)
    end
  | Legacy lg -> Flowlet.choose lg.lg_flowlets ~flow:slot ~now ~preferred

let iter t f =
  match t with
  | Soa s -> Hashtbl.iter f s.so_slots
  | Legacy lg -> Hashtbl.iter (fun flow _ -> f flow flow) lg.lg_flows

let live t =
  match t with
  | Soa s -> Hashtbl.length s.so_slots
  | Legacy lg -> Hashtbl.length lg.lg_flows

let peak t = match t with Soa s -> s.so_peak | Legacy lg -> lg.lg_peak

let recycled t =
  match t with Soa s -> s.so_recycled | Legacy lg -> lg.lg_recycled

let approx_bytes t =
  match t with
  | Soa s ->
    let cap = Array.length s.so_flow_of in
    (* five int arrays + one float array at 8 bytes a slot, one flag
       byte, plus ~3 words per live hashtable binding and the bucket
       array *)
    (cap * ((6 * 8) + 1)) + (live t * 24) + (cap * 4) + 128
  | Legacy lg ->
    let cap = Array.length lg.lg_arr in
    (* per flow: a 9-word entry record, ~3 words of hashtable binding,
       a flowlet entry (record + binding), and the dense mirror slot *)
    (cap * 8) + (live t * (72 + 24 + 48)) + 128

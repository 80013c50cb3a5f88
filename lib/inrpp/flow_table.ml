(* One struct-of-arrays table behind the slot interface — see the .mli
   for the contract.  The arrays grow by doubling and never shrink; a
   released slot is threaded onto a free list through [so_flow_of]
   (live slots hold the flow id >= 0, free slots hold [-2 - next] so
   the encoding never collides with a flow id). *)

type route =
  | Primary
  | Via of int

(* flag bits, one byte per slot *)
let f_bp_local = 1
let f_bp_forwarded = 2
let f_detour_override = 4
let f_bp_outage = 8
let f_failed_over = 16

type t = {
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

let create ~gap () =
  if gap < 0. then invalid_arg "Flow_table.create: gap < 0";
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

let grow s =
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

let alloc s =
  if s.so_free >= 0 then begin
    let slot = s.so_free in
    s.so_free <- -2 - s.so_flow_of.(slot);
    slot
  end
  else begin
    if s.so_next >= Array.length s.so_flow_of then grow s;
    let slot = s.so_next in
    s.so_next <- s.so_next + 1;
    slot
  end

let flag s slot bit = Char.code (Bytes.unsafe_get s.so_flags slot) land bit <> 0

let set_flag s slot bit v =
  let cur = Char.code (Bytes.unsafe_get s.so_flags slot) in
  let next = if v then cur lor bit else cur land lnot bit in
  Bytes.unsafe_set s.so_flags slot (Char.unsafe_chr next)

let find s flow =
  match Hashtbl.find s.so_slots flow with
  | slot -> slot
  | exception Not_found -> -1

let install s ~flow ~content ~data_link ~req_link =
  if flow < 0 then invalid_arg "Flow_table.install: flow < 0";
  let slot =
    match Hashtbl.find_opt s.so_slots flow with
    | Some slot -> slot (* reinstall: keep the slot and the flowlet pin *)
    | None ->
      let slot = alloc s in
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

let release s ~flow =
  match Hashtbl.find_opt s.so_slots flow with
  | None -> ()
  | Some slot ->
    Hashtbl.remove s.so_slots flow;
    s.so_flow_of.(slot) <- -2 - s.so_free;
    s.so_free <- slot;
    s.so_recycled <- s.so_recycled + 1

let flow_of s slot = s.so_flow_of.(slot)
let content s slot = s.so_content.(slot)
let data_link s slot = s.so_data_link.(slot)
let req_link s slot = s.so_req_link.(slot)

let set_links s slot ~data_link ~req_link =
  s.so_data_link.(slot) <- data_link;
  s.so_req_link.(slot) <- req_link

let bp_local s slot = flag s slot f_bp_local
let set_bp_local s slot v = set_flag s slot f_bp_local v
let bp_forwarded s slot = flag s slot f_bp_forwarded
let set_bp_forwarded s slot v = set_flag s slot f_bp_forwarded v
let detour_override s slot = flag s slot f_detour_override
let set_detour_override s slot v = set_flag s slot f_detour_override v
let bp_outage s slot = flag s slot f_bp_outage
let set_bp_outage s slot v = set_flag s slot f_bp_outage v
let failed_over s slot = flag s slot f_failed_over
let set_failed_over s slot v = set_flag s slot f_failed_over v

let flowlet_choose s slot ~now ~preferred =
  let encode = function Primary -> -1 | Via v -> v in
  let decode v = if v < 0 then Primary else Via v in
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

let iter s f = Hashtbl.iter f s.so_slots
let live s = Hashtbl.length s.so_slots
let peak s = s.so_peak
let recycled s = s.so_recycled

let approx_bytes s =
  let cap = Array.length s.so_flow_of in
  (* five int arrays + one float array at 8 bytes a slot, one flag
     byte, plus ~3 words per live hashtable binding and the bucket
     array *)
  (cap * ((6 * 8) + 1)) + (live s * 24) + (cap * 4) + 128

(* Host-speed probe.  The benchmark host is shared: its speed drifts
   by tens of percent over seconds, and whole runs can land in a slow
   stretch.  Each timed call is preceded by this fixed kernel, which
   uses none of the library: a binary heap of float keys, an int hash
   table and short-lived allocation (the simulator's mix of work), plus
   a dependent random walk over a 32 MB off-heap table, so that the
   probe slows down as the simulator does when neighbours contend for
   cache and memory.  The call's wall time is rescaled to a host on
   which the kernel takes [reference_s].  Changes to the library cannot move the probe, so the
   rescaled times still compare two versions of the program. *)

(* About the kernel's median time on the 2-core reference host, which
   ranged from 21 to 25 ms as the host's load moved. *)
let reference_s = 0.025
let heap = Array.make 4096 0.
let tbl : (int, int ref) Hashtbl.t = Hashtbl.create 4096

(* Off the OCaml heap, so that it does not count in peak_heap_bytes. *)
let walk_size = 1 lsl 23

let walk =
  let a = Bigarray.(Array1.create int32 c_layout walk_size) in
  let s = ref 7 in
  for i = 0 to walk_size - 1 do
    s := (!s * 1103515245 + 12345) land 0x3fffffff;
    a.{i} <- Int32.of_int (!s land (walk_size - 1))
  done;
  a

let kernel () =
  let n = ref 0 in
  let push x =
    let i = ref !n in
    incr n;
    while !i > 0 && heap.((!i - 1) / 2) > x do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- x
  in
  let pop () =
    let top = heap.(0) in
    decr n;
    let x = heap.(!n) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !n then continue := false
      else begin
        let c = if l + 1 < !n && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < x then (heap.(!i) <- heap.(c); i := c) else continue := false
      end
    done;
    if !n > 0 then heap.(!i) <- x;
    top
  in
  let acc = ref [] in
  let s = ref 1 in
  for _ = 1 to 2048 do
    s := (!s * 1103515245 + 12345) land 0x3fffffff;
    push (float_of_int !s)
  done;
  for j = 1 to 100_000 do
    s := (!s * 1103515245 + 12345) land 0x3fffffff;
    let t = pop () in
    push (t +. float_of_int (!s land 1023));
    let key = !s land 4095 in
    (match Hashtbl.find_opt tbl key with
    | Some r -> incr r
    | None -> Hashtbl.replace tbl key (ref j));
    acc := (key, t) :: (if j land 63 = 0 then [] else !acc)
  done;
  let p = ref 0 in
  for j = 1 to 50_000 do
    p := (Int32.to_int walk.{!p} + j) land (walk_size - 1)
  done;
  List.length !acc + !p

let run () =
  let t0 = Spans.clock_s () in
  ignore (Sys.opaque_identity (kernel ()));
  Spans.clock_s () -. t0

(* Factor turning a wall time measured next to probe time [probe] into
   reference-host seconds. *)
let scale probe = reference_s /. probe

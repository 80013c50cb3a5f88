(* In-memory span recorder for the traced run.

   A span is one call the benchmark makes into a layer: its name, start
   and end (monotonic ns), the span that was open when it began (its
   parent), the flow it belongs to (-1 when none) and the minor-heap
   words allocated inside it.  Neither the clock nor [Gc.minor_words]
   allocates, so a span's words are exactly its callee's.  Spans live
   in growable int arrays and are folded into per-name totals (self =
   own duration minus the part its children cover) after each call. *)

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns" "perfbench_now_ns_unboxed"
[@@noalloc]

let clock_s () = float_of_int (now_ns ()) *. 1e-9

let names =
  [| "setup.net"; "setup.detour_table"; "setup.routers"; "setup.path";
     "setup.pacing"; "setup.endpoints"; "setup.handlers"; "setup.sampler";
     "setup.schedule"; "engine.run"; "router.handler"; "router.originate";
     "sender.handle"; "receiver.handle_data"; "receiver.start";
     "router.tick"; "router.drain" |]

let id name =
  let rec go i =
    if i >= Array.length names then invalid_arg ("Spans.id: " ^ name)
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

type t = {
  mutable n : int;
  mutable cur : int;  (* open span, -1 at top level *)
  mutable name : int array;
  mutable parent : int array;
  mutable flow : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable w0 : int array;
  mutable words : int array;
}

let create () =
  let a () = Array.make 4096 0 in
  { n = 0; cur = -1; name = a (); parent = a (); flow = a (); start = a ();
    stop = a (); w0 = a (); words = a () }

let reset t =
  t.n <- 0;
  t.cur <- -1

let grow t =
  let cap = 2 * Array.length t.name in
  let g a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- g t.name; t.parent <- g t.parent; t.flow <- g t.flow;
  t.start <- g t.start; t.stop <- g t.stop; t.w0 <- g t.w0;
  t.words <- g t.words

let[@inline] enter t name flow =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- t.cur;
  t.flow.(i) <- flow;
  t.cur <- i;
  t.w0.(i) <- int_of_float (Gc.minor_words ());
  t.start.(i) <- now_ns ();
  i

let[@inline] leave t i =
  t.stop.(i) <- now_ns ();
  t.words.(i) <- int_of_float (Gc.minor_words ()) - t.w0.(i);
  t.cur <- t.parent.(i)

(* Per-name totals accumulated over calls. *)
type totals = {
  calls : int array;
  total_ns : float array;  (* inclusive *)
  self_ns : float array;
  self_words : float array;
}

let totals () =
  let k = Array.length names in
  { calls = Array.make k 0; total_ns = Array.make k 0.;
    self_ns = Array.make k 0.; self_words = Array.make k 0. }

let fold t (acc : totals) =
  let child_ns = Array.make t.n 0 and child_w = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (t.stop.(i) - t.start.(i));
      child_w.(p) <- child_w.(p) + t.words.(i)
    end
  done;
  for i = 0 to t.n - 1 do
    let k = t.name.(i) and d = t.stop.(i) - t.start.(i) in
    acc.calls.(k) <- acc.calls.(k) + 1;
    acc.total_ns.(k) <- acc.total_ns.(k) +. float_of_int d;
    acc.self_ns.(k) <- acc.self_ns.(k) +. float_of_int (d - child_ns.(i));
    acc.self_words.(k) <- acc.self_words.(k) +. float_of_int (t.words.(i) - child_w.(i))
  done

(* The recorded spans, one line each, times relative to the first. *)
let write_tsv t path =
  let oc = open_out path in
  output_string oc "id\tname\tparent\tflow\tstart_ns\tend_ns\twords\n";
  let base = if t.n > 0 then t.start.(0) else 0 in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\n" i names.(t.name.(i))
      t.parent.(i) t.flow.(i) (t.start.(i) - base) (t.stop.(i) - base)
      t.words.(i)
  done;
  close_out oc

(* perfbench: the repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   --trace 0 times untraced [Inrpp.Protocol.run] calls and prints the
   end-to-end metrics; --trace 1 runs the span-instrumented assembly
   (see [Traced]) and prints the per-layer ledger.  The last stdout
   line is the result object; the line before it carries the
   environment stamp and the run's output digest.  Human-readable
   tables go to stderr. *)

let default_seed = 1
let digests_file = "perfbench/digests.txt"

(* ------------------------------------------------------------------ *)
(* Helpers *)

let now () = Spans.clock_s ()

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_str s = Printf.sprintf "%S" s

let stamp (w : Workloads.t) ~seed ~seconds ~trace ~smoke =
  Printf.sprintf
    "{\"profile\": %s, \"ocaml\": %s, \"nproc\": %d, \"workload\": %s, \
     \"seed\": %d, \"seconds\": %d, \"trace\": %d, \"smoke\": %b, \"sizes\": \
     {%s}}"
    (json_str Build_info.profile) (json_str Sys.ocaml_version)
    (Domain.recommended_domain_count ()) (json_str w.Workloads.name) seed
    seconds trace smoke
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %d" (json_str k) v)
          w.Workloads.sizes))

let print_result ~detail ~correct ~attempted ~failed metrics =
  print_endline detail;
  let m =
    List.map
      (fun (name, value, unit) ->
        if not (Float.is_finite value) then
          failwith (Printf.sprintf "metric %s is not finite" name);
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str name)
          (json_num value) (json_str unit))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let recorded_digest ~name ~smoke =
  let key = Printf.sprintf "%s %s" name (if smoke then "smoke" else "full") in
  match open_in digests_file with
  | exception Sys_error _ -> None
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match String.rindex_opt line ' ' with
        | Some i when String.sub line 0 i = key ->
          Some (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> go ())
    in
    let r = go () in
    close_in ic;
    r

let combine digests = Digest.to_hex (Digest.string (String.concat "," digests))

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics *)

(* Set-up only: the same call with a horizon that ends before the
   first packet can cross a link. *)
let setup_horizon = 1e-9

(* Share of the run's time spent on set-up-only calls; they are
   interleaved with the timed calls so that their median spans the
   whole run rather than one stretch of it. *)
let setup_share = 0.1
let setup_min_samples = 11

let untraced (w : Workloads.t) ~seed ~seconds ~smoke ~detail_stamp =
  let k = w.Workloads.calls in
  let inputs = Array.init k (w.Workloads.make ~seed) in
  let digests = Array.make k "" in
  let delivered = Array.make k 0 in
  let scaled = Array.make k [] in
  let attempted = ref 0 and failed = ref 0 and correct = ref true in
  let pass1_words = ref 0. in
  let peak_heap = ref 0. in
  let calls = ref 0 in
  let setups = ref [] and setup_n = ref 0 and setup_time = ref 0. in
  let last_probe = ref Calib.reference_s in
  let setup_call () =
    let x = inputs.(!setup_n mod k) in
    let obs = Workloads.observer_for x in
    Gc.full_major ();
    let t0 = now () in
    ignore (Workloads.run_input ?obs { x with Workloads.horizon = setup_horizon });
    let dt = now () -. t0 in
    setups := (dt *. Calib.scale !last_probe) :: !setups;
    setup_time := !setup_time +. dt;
    incr setup_n
  in
  let t_start = now () in
  while !calls < k || now () -. t_start < float_of_int seconds do
    let i = !calls mod k in
    let x = inputs.(i) in
    let obs = Workloads.observer_for x in
    let probe = Calib.run () in
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = Workloads.run_input ?obs x in
    let t1 = now () in
    let w1 = Gc.minor_words () in
    let o = Outcome.of_result r in
    let d = Outcome.digest o in
    let nflows = List.length x.Workloads.specs in
    let f = Outcome.failed_flows o x.Workloads.specs in
    let f =
      if !calls < k then begin
        digests.(i) <- d;
        delivered.(i) <- Outcome.delivered o;
        pass1_words := !pass1_words +. (w1 -. w0);
        f
      end
      else if d <> digests.(i) then begin
        Printf.eprintf "digest of input %d changed on repeat\n%!" i;
        nflows
      end
      else f
    in
    if f > 0 then correct := false;
    attempted := !attempted + nflows;
    failed := !failed + f;
    scaled.(i) <- ((t1 -. t0) *. Calib.scale probe) :: scaled.(i);
    last_probe := probe;
    incr calls;
    (* the process is fresh until the first pass ends, so its heap
       high-water mark is this workload's and nothing earlier's *)
    if !calls = k then
      peak_heap :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8));
    if !calls >= k then
      while !setup_time < setup_share *. (now () -. t_start) do
        setup_call ()
      done
  done;
  while !setup_n < setup_min_samples do
    setup_call ()
  done;
  let pass_digest = combine (Array.to_list digests) in
  if seed = default_seed then begin
    match recorded_digest ~name:w.Workloads.name ~smoke with
    | Some rec_d when rec_d <> pass_digest ->
      Printf.eprintf "digest %s differs from the recorded %s\n%!" pass_digest
        rec_d;
      correct := false;
      failed := !attempted
    | Some _ -> ()
    | None ->
      Printf.eprintf "no recorded digest for %s\n%!" w.Workloads.name;
      correct := false
  end;
  let chunks = Array.fold_left ( + ) 0 delivered in
  let pass_wall = Array.fold_left (fun a ts -> a +. median ts) 0. scaled in
  let setup_s = median !setups in
  Printf.eprintf
    "%s seed=%d: %d calls over %d inputs, %d chunks per pass in %.3fs \
     (median repeat of each, reference-host seconds), %d/%d flows failed, \
     set-up median of %d = %.6fs\n%!"
    w.Workloads.name seed !calls k chunks pass_wall !failed !attempted
    !setup_n setup_s;
  let detail =
    Printf.sprintf "{\"stamp\": %s, \"digest\": %s}" detail_stamp
      (json_str pass_digest)
  in
  print_result ~detail ~correct:!correct ~attempted:!attempted ~failed:!failed
    [ ("chunks_per_s", float_of_int chunks /. pass_wall, "chunks/s");
      ("setup_s", setup_s, "s");
      ("minor_words_per_chunk", !pass1_words /. float_of_int chunks,
       "words/chunk");
      ("peak_heap_bytes", !peak_heap, "bytes");
      ("completed_flow_ratio",
       float_of_int (!attempted - !failed) /. float_of_int !attempted, "ratio") ]

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer ledger *)

(* The detour table fills lazily inside the run (first use of a link's
   candidates); its full build is timed here, once, on a fresh table. *)
let detour_build_s (x : Workloads.input) =
  let t0 = now () in
  let d =
    Inrpp.Detour_table.create
      ~max_intermediate:(max 1 x.Workloads.cfg.Inrpp.Config.max_detour)
      x.Workloads.g
  in
  Topology.Graph.iter_links
    (fun l -> ignore (Inrpp.Detour_table.candidates d l))
    x.Workloads.g;
  now () -. t0

let traced (w : Workloads.t) ~seed ~seconds ~detail_stamp =
  let k = max 1 (w.Workloads.calls / 4) in
  let inputs = Array.init k (w.Workloads.make ~seed) in
  let timed f =
    Gc.full_major ();
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  let sp = Spans.create () in
  let tot = Spans.totals () in
  let attempted = ref 0 and failed = ref 0 and fidelity = ref true in
  let traced_wall = ref 0. and traced_calls = ref 0 in
  let ref_wall = ref 0. and ref_bare = ref 0. in
  let first = Array.make k None in
  let pass_calls = ref [||] in
  let all_events = ref 0 and all_ticks = ref 0 and all_drains = ref 0 in
  let sampler_probe = ref 0. in
  let t_start = now () in
  (* each traced call follows an untraced reference call on the same
     input (and, when observed, its unobserved twin): the reference
     gives the digest the assembly must reproduce and the wall time
     the trace overhead is measured against *)
  while !traced_calls < k || now () -. t_start < float_of_int seconds do
    let i = !traced_calls mod k in
    let x = inputs.(i) in
    let obs = Workloads.observer_for x in
    let r, wall = timed (fun () -> Workloads.run_input ?obs x) in
    ref_wall := !ref_wall +. wall;
    (ref_bare :=
       !ref_bare
       +. if x.Workloads.observed then snd (timed (fun () -> Workloads.run_input x))
          else wall);
    Spans.reset sp;
    let (o, layers), wall = timed (fun () -> Traced.run sp x) in
    Spans.fold sp tot;
    traced_wall := !traced_wall +. wall;
    sampler_probe := !sampler_probe +. layers.Traced.sampler_probe_s;
    all_events := !all_events + o.Outcome.engine_events;
    all_ticks := !all_ticks + layers.Traced.router_ticks;
    all_drains := !all_drains + layers.Traced.router_drains;
    let nflows = List.length x.Workloads.specs in
    let f =
      if Outcome.digest o <> Outcome.digest (Outcome.of_result r) then begin
        Printf.eprintf "traced assembly diverged from Protocol.run on input %d\n%!" i;
        fidelity := false;
        nflows
      end
      else Outcome.failed_flows o x.Workloads.specs
    in
    attempted := !attempted + nflows;
    failed := !failed + f;
    if first.(i) = None then first.(i) <- Some (o, layers);
    incr traced_calls;
    if !traced_calls = k then pass_calls := Array.copy tot.Spans.calls
  done;
  (try
     (try Sys.mkdir "_perfbench_out" 0o755 with Sys_error _ -> ());
     let path = Printf.sprintf "_perfbench_out/%s.spans.tsv" w.Workloads.name in
     Spans.write_tsv sp path;
     Printf.eprintf "spans of the last traced call: %s (%d spans)\n%!" path sp.Spans.n
   with Sys_error e -> Printf.eprintf "spans not written: %s\n%!" e);
  (* engine self-profiler on the same inputs, for the cross-check *)
  let prof = Hashtbl.create 8 in
  Array.iter
    (fun x ->
      let sample_interval =
        if x.Workloads.observed then None else Some (2. *. x.Workloads.horizon)
      in
      let o =
        Obs.Observer.create ?sample_interval ~profile:true ~clock:Spans.clock_s ()
      in
      ignore (Workloads.run_input ~obs:o x);
      List.iter
        (fun (kind, _, wall, _) ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt prof kind) in
          Hashtbl.replace prof kind (prev +. wall))
        (Obs.Observer.profile_rows o))
    inputs;
  (* ---- assemble the ledger ---- *)
  let firsts = Array.to_list (Array.map Option.get first) in
  let sumo f = float_of_int (List.fold_left (fun a (o, _) -> a + f o) 0 firsts) in
  let suml f = float_of_int (List.fold_left (fun a (_, l) -> a + f l) 0 firsts) in
  let maxl f = float_of_int (List.fold_left (fun a (_, l) -> max a (f l)) 0 firsts) in
  let sumarr a = Array.fold_left ( + ) 0 a in
  let per_call x = x /. float_of_int !traced_calls in
  let fk = float_of_int k in
  let s name = Spans.id name in
  let all_calls name = float_of_int tot.Spans.calls.(s name) in
  let pass_calls name = float_of_int !pass_calls.(s name) in
  let self_ns name = tot.Spans.self_ns.(s name) in
  let total_ns name = tot.Spans.total_ns.(s name) in
  let words name = tot.Spans.self_words.(s name) in
  let ratio a b = if b > 0. then a /. b else 0. in
  (* counts are per pass and repeat exactly; times average over every
     traced call *)
  let all_events = float_of_int !all_events in
  let all_ticks = float_of_int !all_ticks in
  let all_drains = float_of_int !all_drains in
  let engine_ns = self_ns "engine.run" -. (!sampler_probe *. 1e9) in
  let events = sumo (fun o -> o.Outcome.engine_events) in
  let run_ns = total_ns "engine.run" in
  let ticks = suml (fun l -> l.Traced.router_ticks) in
  let drains = suml (fun l -> l.Traced.router_drains) in
  let received = sumo (fun o -> sumarr o.Outcome.received) in
  let layer_self =
    Array.to_list
      (Array.mapi
         (fun i name ->
           let v = tot.Spans.self_ns.(i) in
           let v = if name = "engine.run" then engine_ns else v in
           (name, per_call v *. 1e-9))
         Spans.names)
    @ [ ("obs.sampler", per_call !sampler_probe) ]
  in
  let wall_per_call = per_call !traced_wall in
  let residual = wall_per_call -. List.fold_left (fun a (_, v) -> a +. v) 0. layer_self in
  let gen_s = Array.fold_left (fun a x -> a +. x.Workloads.gen_s) 0. inputs /. fk in
  (* cross-check shares: traced spans vs the engine profiler's rows *)
  let packet_ns =
    self_ns "router.handler" +. self_ns "router.originate"
    +. self_ns "sender.handle" +. self_ns "receiver.handle_data"
  in
  let prof_total = Hashtbl.fold (fun _ v a -> a +. v) prof 0. in
  let prof_share kind =
    ratio (Option.value ~default:0. (Hashtbl.find_opt prof kind)) prof_total
  in
  let tr_tick = ratio (total_ns "router.tick") run_ns in
  let tr_drain = ratio (total_ns "router.drain") run_ns in
  let tr_packet = ratio packet_ns run_ns in
  let gap =
    List.fold_left Float.max 0.
      [ Float.abs (tr_tick -. prof_share "tick");
        Float.abs (tr_drain -. prof_share "drain");
        Float.abs (tr_packet -. prof_share "packet") ]
  in
  let unattributed = ratio engine_ns run_ns +. ratio residual wall_per_call in
  Printf.eprintf "\n%s seed=%d: %d traced calls over %d inputs\n" w.Workloads.name
    seed !traced_calls k;
  Printf.eprintf "%-22s %12s\n" "layer (self)" "s/call";
  List.iter (fun (n, v) -> Printf.eprintf "%-22s %12.6f\n" n v) layer_self;
  Printf.eprintf "%-22s %12.6f\n%-22s %12.6f\n" "residual" residual
    "traced wall" wall_per_call;
  Printf.eprintf "\n%-8s %8s %8s\n" "share" "traced" "profiler";
  List.iter
    (fun (n, a, b) -> Printf.eprintf "%-8s %8.4f %8.4f\n" n a b)
    [ ("tick", tr_tick, prof_share "tick"); ("drain", tr_drain, prof_share "drain");
      ("packet", tr_packet, prof_share "packet");
      ("other", ratio engine_ns run_ns, prof_share "other") ];
  Printf.eprintf "max gap %.4f vs unattributed+residual %.4f (%s)\n%!" gap
    unattributed (if gap <= unattributed then "agree" else "DISAGREE");
  let detail =
    Printf.sprintf "{\"stamp\": %s, \"fidelity\": %b}" detail_stamp !fidelity
  in
  print_result ~detail ~correct:(!fidelity && !failed = 0) ~attempted:!attempted
    ~failed:!failed
    ([ ("sim.engine.events", events, "count");
       ("sim.engine.events_per_s", ratio all_events (run_ns *. 1e-9), "1/s");
       ("sim.engine.self_ns_per_event", ratio engine_ns all_events, "ns");
       ("sim.event_queue.cancelled_ratio",
        ratio (suml (fun l -> l.Traced.queue_cancelled))
          (suml (fun l -> l.Traced.queue_scheduled)), "ratio");
       ("inrpp.router.handler.calls", pass_calls "router.handler", "count");
       ("inrpp.router.handler.self_ns_per_call",
        ratio (self_ns "router.handler") (all_calls "router.handler"), "ns");
       ("inrpp.router.handler.words_per_call",
        ratio (words "router.handler") (all_calls "router.handler"), "words");
       ("inrpp.router.originate.calls", pass_calls "router.originate", "count");
       ("inrpp.router.originate.self_ns_per_call",
        ratio (self_ns "router.originate") (all_calls "router.originate"), "ns");
       ("inrpp.router.tick.calls", ticks, "count");
       ("inrpp.router.tick.ns_per_call", ratio (total_ns "router.tick") all_ticks, "ns");
       ("inrpp.router.tick.words_per_call", ratio (words "router.tick") all_ticks,
        "words");
       ("inrpp.router.estimators",
        suml (fun l -> l.Traced.estimators) /. fk, "count");
       ("inrpp.router.drain.calls", drains, "count");
       ("inrpp.router.drain.ns_per_call", ratio (total_ns "router.drain") all_drains,
        "ns");
       ("inrpp.router.drain.words_per_call", ratio (words "router.drain") all_drains,
        "words");
       ("chunksim.cache.custody_stored", sumo (fun o -> o.Outcome.custody_stored), "count");
       ("chunksim.cache.custody_released",
        sumo (fun o -> o.Outcome.custody_released), "count");
       ("inrpp.router.bp_engages", sumo (fun o -> o.Outcome.bp_engages), "count");
       ("inrpp.setup.path_s", per_call (total_ns "setup.path") *. 1e-9, "s");
       ("inrpp.setup.pacing_s", per_call (total_ns "setup.pacing") *. 1e-9, "s");
       ("topology.dijkstra.calls", suml (fun l -> l.Traced.dijkstra_calls), "count");
       ("inrpp.detour_table.build_s", detour_build_s inputs.(0), "s");
       ("workload.gen_s", gen_s, "s");
       ("inrpp.flow_table.installs", suml (fun l -> l.Traced.installs), "count");
       ("inrpp.flow_table.releases", suml (fun l -> l.Traced.releases), "count");
       ("inrpp.flow_table.entries_peak", maxl (fun l -> l.Traced.entries_peak), "count");
       ("inrpp.flow_table.bytes", maxl (fun l -> l.Traced.table_bytes), "bytes");
       ("inrpp.sender.handle.calls", pass_calls "sender.handle", "count");
       ("inrpp.sender.handle.ns_per_call",
        ratio (self_ns "sender.handle") (all_calls "sender.handle"), "ns");
       ("inrpp.receiver.handle_data.calls", pass_calls "receiver.handle_data", "count");
       ("inrpp.receiver.handle_data.ns_per_call",
        ratio (self_ns "receiver.handle_data") (all_calls "receiver.handle_data"),
        "ns");
       ("inrpp.receiver.requests_per_chunk",
        ratio (sumo (fun o -> sumarr o.Outcome.requests)) received, "ratio");
       ("inrpp.receiver.duplicate_ratio",
        ratio (sumo (fun o -> sumarr o.Outcome.duplicates))
          (received +. sumo (fun o -> sumarr o.Outcome.duplicates)), "ratio");
       ("overload.shed", sumo (fun o -> o.Outcome.shed), "count");
       ("overload.detours_refused", sumo (fun o -> o.Outcome.detours_refused), "count");
       ("overload.collapse_episodes", sumo (fun o -> o.Outcome.collapse_episodes),
        "count");
       ("obs.sampler.ticks", suml (fun l -> l.Traced.sampler_ticks), "count");
       ("obs.sampler.series", suml (fun l -> l.Traced.sampler_series) /. fk, "count");
       ("obs.sampler.probe_s", per_call !sampler_probe, "s");
       ("obs.overhead_ratio", ratio !ref_wall !ref_bare, "ratio");
       ("bench.trace_overhead_ratio", ratio !traced_wall !ref_wall, "ratio");
       ("bench.residual_s", residual, "s");
       ("bench.traced_wall_s", wall_per_call, "s");
       ("inrpp.router.drops", sumo (fun o -> o.Outcome.drops), "count");
       ("inrpp.router.detoured", sumo (fun o -> o.Outcome.detoured), "count");
       ("xcheck.traced.tick_share", tr_tick, "ratio");
       ("xcheck.traced.drain_share", tr_drain, "ratio");
       ("xcheck.traced.packet_share", tr_packet, "ratio");
       ("xcheck.profiler.tick_share", prof_share "tick", "ratio");
       ("xcheck.profiler.drain_share", prof_share "drain", "ratio");
       ("xcheck.profiler.packet_share", prof_share "packet", "ratio");
       ("xcheck.max_gap", gap, "ratio");
       ("xcheck.tolerance", unattributed, "ratio") ]
    @ List.map (fun (n, v) -> ("self_s." ^ n, v, "s")) layer_self)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10 in
  let trace = ref 0 and smoke = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--smoke", Arg.Set smoke, " smoke-sized inputs (self-test)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workloads.find ~smoke:!smoke !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  (* fixture: the ISP-zoo graph is memoised per process, so build it
     before anything is timed *)
  ignore (Workloads.ebone ());
  let detail_stamp =
    stamp w ~seed:!seed ~seconds:!seconds ~trace:!trace ~smoke:!smoke
  in
  if !trace = 0 then
    untraced w ~seed:!seed ~seconds:!seconds ~smoke:!smoke ~detail_stamp
  else traced w ~seed:!seed ~seconds:!seconds ~detail_stamp

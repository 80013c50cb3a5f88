(* Workload engine: statistical laws and determinism.

   The law tests derive their tolerances in-test from the exact
   distributions the generators expose (Catalog.probability,
   Catalog.survival, the exponential inter-arrival moments): each
   bound is z standard errors of the estimator under the law being
   checked, z = 5 (two-sided miss probability < 1e-6 per comparison),
   never a hand-tuned margin.  Every test also runs at three distinct
   seeds — and because generation is pure, a pass is a pass forever,
   not a lucky draw. *)

let seeds = [ 7L; 101L; 9001L ]

let at_seeds name f =
  List.map
    (fun seed ->
      Alcotest.test_case
        (Printf.sprintf "%s (seed %Ld)" name seed)
        `Quick
        (fun () -> f seed))
    seeds

let z = 5.

(* ------------------------------------------------------------------ *)
(* Catalog: Zipf rank-frequency *)

(* Weighted least squares of log(empirical frequency) on log(rank).
   On the exact probabilities the slope is exactly -alpha (finite-N
   Zipf is an exact power law), so the estimator's deviation is pure
   sampling noise: log p-hat - log p ~ (p-hat - p)/p with binomial sd
   sqrt((1-p)/(N p)), and the slope is the w-weighted sum of the
   per-rank deviations.  The small additive slack covers the
   second-order term of the log linearisation. *)
let zipf_slope alpha seed =
  let n = 50 and draws = 20_000 in
  let cat = Workload.Catalog.create ~alpha ~objects:n ~seed () in
  let rng = Sim.Rng.create (Int64.add seed 1L) in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let id = Workload.Catalog.draw cat rng in
    counts.(id) <- counts.(id) + 1
  done;
  let fn = float_of_int n in
  let x = Array.init n (fun k -> log (float_of_int (k + 1))) in
  let xbar = Array.fold_left ( +. ) 0. x /. fn in
  let sxx = Array.fold_left (fun a xi -> a +. ((xi -. xbar) ** 2.)) 0. x in
  let w = Array.map (fun xi -> (xi -. xbar) /. sxx) x in
  let slope = ref 0. and var = ref 0. in
  Array.iteri
    (fun k c ->
      if c = 0 then
        Alcotest.failf "rank %d drew no samples — widen draws" (k + 1);
      let p = Workload.Catalog.probability cat k in
      slope := !slope +. (w.(k) *. log (float_of_int c /. float_of_int draws));
      var := !var +. (w.(k) ** 2.) *. (1. -. p) /. (float_of_int draws *. p))
    counts;
  let tolerance = (z *. sqrt !var) +. 0.02 in
  if Float.abs (!slope +. alpha) > tolerance then
    Alcotest.failf "Zipf slope %.4f vs -%.2f exceeds %.4f" !slope alpha
      tolerance;
  (* and every rank's raw frequency within its own binomial bound *)
  Array.iteri
    (fun k c ->
      let p = Workload.Catalog.probability cat k in
      let se = sqrt (p *. (1. -. p) /. float_of_int draws) in
      let dev =
        Float.abs ((float_of_int c /. float_of_int draws) -. p)
      in
      if dev > (z *. se) +. (1. /. float_of_int draws) then
        Alcotest.failf "rank %d frequency off by %.5f (> %.5f)" (k + 1) dev
          ((z *. se) +. (1. /. float_of_int draws)))
    counts

let test_zipf_slope seed =
  List.iter (fun alpha -> zipf_slope alpha seed) [ 0.6; 1.0 ]

(* the probabilities the tolerance derivation leans on must themselves
   sum to one and decay monotonically *)
let test_zipf_mass () =
  let cat = Workload.Catalog.create ~alpha:0.8 ~objects:100 ~seed:1L () in
  let total = ref 0. in
  for k = 0 to 99 do
    total := !total +. Workload.Catalog.probability cat k;
    if k > 0 then
      Alcotest.(check bool) "monotone" true
        (Workload.Catalog.probability cat k
        <= Workload.Catalog.probability cat (k - 1))
  done;
  Alcotest.(check (float 1e-9)) "sums to 1" 1. !total

(* ------------------------------------------------------------------ *)
(* Catalog: bounded-Pareto chunk counts *)

(* each object's chunk count is an iid bounded-Pareto draw, so a large
   catalogue is a large sample; Catalog.survival is the exact law of
   the discretised draw, making the empirical tail a binomial whose
   standard error we can bound *)
let test_pareto_tail seed =
  let objects = 4_000 in
  let cat =
    Workload.Catalog.create ~chunk_min:4 ~chunk_max:256 ~chunk_shape:1.2
      ~objects ~seed ()
  in
  let fobjects = float_of_int objects in
  List.iter
    (fun k ->
      let p = Workload.Catalog.survival cat k in
      let tail = ref 0 in
      for id = 0 to objects - 1 do
        if Workload.Catalog.chunks cat id >= k then incr tail
      done;
      let emp = float_of_int !tail /. fobjects in
      let se = sqrt (p *. (1. -. p) /. fobjects) in
      if Float.abs (emp -. p) > (z *. se) +. (1. /. fobjects) then
        Alcotest.failf "tail mass at %d: %.5f vs exact %.5f (se %.5f)" k emp
          p se)
    [ 4; 6; 8; 12; 16; 24; 32; 64; 128; 256 ];
  (* the bounds are hard, not statistical *)
  for id = 0 to objects - 1 do
    let c = Workload.Catalog.chunks cat id in
    if c < 4 || c > 256 then Alcotest.failf "chunks %d out of bounds" c
  done

(* ------------------------------------------------------------------ *)
(* Arrivals: Poisson law and thinning *)

let test_poisson_interarrivals seed =
  let rate = 5. and n = 20_000 in
  let a = Workload.Arrivals.create ~rate ~seed () in
  let fn = float_of_int n in
  let prev = ref 0. and sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let t = Workload.Arrivals.next a in
    let gap = t -. !prev in
    if gap <= 0. then Alcotest.fail "arrivals must strictly increase";
    prev := t;
    sum := !sum +. gap;
    sumsq := !sumsq +. (gap *. gap)
  done;
  let mean = !sum /. fn in
  let var = (!sumsq /. fn) -. (mean *. mean) in
  let mu = 1. /. rate in
  (* sd of the sample mean of exponentials is mu / sqrt n *)
  let se_mean = mu /. sqrt fn in
  if Float.abs (mean -. mu) > z *. se_mean then
    Alcotest.failf "inter-arrival mean %.5f vs %.5f (se %.5f)" mean mu se_mean;
  (* Var(S^2) for exponentials ~ 8 sigma^4 / n *)
  let se_var = sqrt 8. *. mu *. mu /. sqrt fn in
  if Float.abs (var -. (mu *. mu)) > z *. se_var then
    Alcotest.failf "inter-arrival variance %.6f vs %.6f (se %.6f)" var
      (mu *. mu) se_var

(* a flash crowd multiplies the rate, so the count of arrivals inside
   the burst window is Poisson with mass boost * rate * duration —
   the thinning sampler has to reproduce it, not just the base rate *)
let test_burst_mass seed =
  let rate = 40. in
  let burst = Workload.Arrivals.burst ~at:10. ~duration:5. ~boost:3. in
  let a = Workload.Arrivals.create ~rate ~bursts:[ burst ] ~seed () in
  let before = ref 0 and inside = ref 0 in
  let rec count () =
    let t = Workload.Arrivals.next a in
    if t < 20. then begin
      if t >= 10. && t < 15. then incr inside
      else if t < 10. then incr before;
      count ()
    end
  in
  count ();
  let check_window label count mass =
    let sd = sqrt mass in
    if Float.abs (float_of_int count -. mass) > z *. sd then
      Alcotest.failf "%s: %d arrivals vs Poisson(%.0f)" label count mass
  in
  check_window "pre-burst" !before (rate *. 10.);
  check_window "burst window" !inside (3. *. rate *. 5.)

(* the rate curve itself is deterministic — check the closed form and
   that the thinning envelope really dominates it *)
let test_rate_curve () =
  let burst = Workload.Arrivals.burst ~at:100. ~duration:50. ~boost:2. in
  let a =
    Workload.Arrivals.create ~diurnal_amplitude:0.5 ~diurnal_period:1000.
      ~bursts:[ burst ] ~rate:10. ~seed:1L ()
  in
  let expected t =
    let d = 10. *. (1. +. (0.5 *. sin (2. *. Float.pi *. t /. 1000.))) in
    if t >= 100. && t < 150. then 2. *. d else d
  in
  List.iter
    (fun t ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "rate at %.0f" t)
        (expected t)
        (Workload.Arrivals.rate_at a t))
    [ 0.; 99.; 100.; 149.; 150.; 250.; 750. ];
  let peak = Workload.Arrivals.peak_rate a in
  for i = 0 to 2_000 do
    let t = float_of_int i in
    if Workload.Arrivals.rate_at a t > peak +. 1e-9 then
      Alcotest.failf "envelope %.3f below rate at t=%.0f" peak t
  done

(* ------------------------------------------------------------------ *)
(* Determinism *)

let graph () =
  Topology.Builders.dumbbell ~access_capacity:10e6 ~bottleneck_capacity:5e6 4

let spec_of_seed seed =
  {
    Workload.Gen.default with
    Workload.Gen.seed;
    horizon = 5.;
    max_requests = 128;
    rate = 10.;
    diurnal_amplitude = 0.3;
    diurnal_period = 10.;
    bursts = [ Workload.Arrivals.burst ~at:1. ~duration:1. ~boost:2. ];
  }

let to_bytes requests =
  String.concat ""
    (List.map
       (fun r -> Obs.Json.to_string (Workload.Request.to_json r) ^ "\n")
       requests)

let prop_same_seed_identical =
  QCheck.Test.make ~name:"same seed, two fresh generators, same bytes"
    ~count:20 QCheck.int64 (fun seed ->
      let g = graph () in
      let spec = spec_of_seed seed in
      let a = Workload.Gen.requests spec g in
      let b = Workload.Gen.requests spec g in
      List.length a = List.length b
      && List.for_all2 Workload.Request.equal a b
      && String.equal (to_bytes a) (to_bytes b))

let prop_stream_well_formed =
  QCheck.Test.make ~name:"generated streams are well-formed" ~count:20
    QCheck.int64 (fun seed ->
      let g = graph () in
      let spec = spec_of_seed seed in
      let requests = Workload.Gen.requests spec g in
      let sorted = ref true and prev = ref neg_infinity in
      List.iter
        (fun (r : Workload.Request.t) ->
          if r.start < !prev then sorted := false;
          prev := r.start)
        requests;
      !sorted
      && List.length requests <= spec.Workload.Gen.max_requests
      && List.for_all
           (fun (r : Workload.Request.t) ->
             r.start >= 0.
             && r.start < spec.Workload.Gen.horizon
             && r.src <> r.dst
             && r.content >= 0
             && r.content < spec.Workload.Gen.objects
             && r.chunks >= spec.Workload.Gen.chunk_min
             && r.chunks <= spec.Workload.Gen.chunk_max)
           requests)

let test_distinct_seeds_differ () =
  let g = graph () in
  let a = Workload.Gen.requests (spec_of_seed 7L) g in
  let b = Workload.Gen.requests (spec_of_seed 8L) g in
  Alcotest.(check bool) "different seeds, different streams" false
    (String.equal (to_bytes a) (to_bytes b))

(* the --domains guarantee: a pool of jobs each generating its own
   stream joins to the same bytes at any domain count, because
   Gen.requests is a pure function of (spec, graph) *)
let test_domains_identical () =
  let g = graph () in
  let jobs =
    Array.of_list
      (List.map
         (fun seed () -> to_bytes (Workload.Gen.requests (spec_of_seed seed) g))
         seeds)
  in
  let baseline = Parallel.Pool.run_jobs ~domains:1 jobs in
  List.iter
    (fun domains ->
      let got = Parallel.Pool.run_jobs ~domains jobs in
      Array.iteri
        (fun i bytes ->
          if not (String.equal bytes baseline.(i)) then
            Alcotest.failf "stream %d differs at domains=%d" i domains)
        got)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Lazy stream: requests_seq is the primitive, requests the wrapper *)

(* the contract in gen.mli: List.of_seq (requests_seq spec g) =
   requests spec g, byte for byte *)
let test_seq_matches_list seed =
  let g = graph () in
  let spec = spec_of_seed seed in
  let from_seq = List.of_seq (Workload.Gen.requests_seq spec g) in
  let from_list = Workload.Gen.requests spec g in
  Alcotest.(check int) "same length" (List.length from_list)
    (List.length from_seq);
  Alcotest.(check string) "same bytes" (to_bytes from_list)
    (to_bytes from_seq)

(* memoization makes the imperative generator state persistent: forcing
   a prefix twice (or a prefix then the whole stream) must not misdraw *)
let test_seq_persistent seed =
  let g = graph () in
  let spec = spec_of_seed seed in
  let s = Workload.Gen.requests_seq spec g in
  let prefix1 = List.of_seq (Seq.take 5 s) in
  let prefix2 = List.of_seq (Seq.take 5 s) in
  Alcotest.(check string) "prefix forced twice" (to_bytes prefix1)
    (to_bytes prefix2);
  let full = List.of_seq s in
  Alcotest.(check string) "partial forcing does not shift the tail"
    (to_bytes (Workload.Gen.requests spec g))
    (to_bytes full)

(* lazy consumption: taking n of an (effectively) unbounded stream
   yields exactly the n requests a generator capped at n produces —
   the consumer, not the spec, can bound the traversal *)
let test_seq_prefix seed =
  let g = graph () in
  let unbounded =
    { (spec_of_seed seed) with
      Workload.Gen.max_requests = 1_000_000;
      horizon = 1e6 }
  in
  let capped = { unbounded with Workload.Gen.max_requests = 7 } in
  let prefix =
    List.of_seq (Seq.take 7 (Workload.Gen.requests_seq unbounded g))
  in
  Alcotest.(check string) "take 7 = max_requests 7"
    (to_bytes (Workload.Gen.requests capped g))
    (to_bytes prefix)

let test_catalog_pure seed =
  let mk () =
    Workload.Catalog.create ~alpha:0.9 ~chunk_min:2 ~chunk_max:128
      ~chunk_shape:1.5 ~objects:200 ~seed ()
  in
  let a = mk () and b = mk () in
  for id = 0 to 199 do
    Alcotest.(check int) "same chunk count"
      (Workload.Catalog.chunks a id)
      (Workload.Catalog.chunks b id)
  done

let test_arrivals_pure seed =
  let mk () = Workload.Arrivals.create ~rate:20. ~seed () in
  let a = mk () and b = mk () in
  for _ = 1 to 1_000 do
    let ta = Workload.Arrivals.next a and tb = Workload.Arrivals.next b in
    if ta <> tb then Alcotest.fail "same-seed arrival streams diverged"
  done

(* ------------------------------------------------------------------ *)
(* Trace round trip *)

let test_trace_round_trip seed =
  let g = graph () in
  let requests = Workload.Gen.requests (spec_of_seed seed) g in
  Alcotest.(check bool) "non-empty stream" true (requests <> []);
  let path = Filename.temp_file "workload" ".ndjson" in
  Workload.Trace.save_file path requests;
  (match Workload.Trace.load_file path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok loaded ->
    Alcotest.(check int) "same length" (List.length requests)
      (List.length loaded);
    List.iter2
      (fun a b ->
        if not (Workload.Request.equal a b) then
          Alcotest.failf "round trip changed %a into %a" Workload.Request.pp
            a Workload.Request.pp b)
      requests loaded;
    match Workload.Trace.validate g loaded with
    | Ok () -> ()
    | Error e -> Alcotest.failf "validate rejected own trace: %s" e);
  Sys.remove path

let test_trace_rejects_foreign () =
  let g = graph () in
  let bad =
    [ { Workload.Request.start = 0.; src = 0; dst = 999; content = 0;
        chunks = 1 } ]
  in
  match Workload.Trace.validate g bad with
  | Ok () -> Alcotest.fail "out-of-range endpoint must be rejected"
  | Error _ -> ()

let test_request_json_rejects () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Error e -> Alcotest.failf "test input must be valid JSON: %s" e
      | Ok j -> begin
        match Workload.Request.of_json j with
        | Ok _ -> Alcotest.failf "must reject %s" s
        | Error _ -> ()
      end)
    [
      {|{"t":0,"src":1,"dst":2,"content":3}|} (* missing chunks *);
      {|{"t":-1,"src":1,"dst":2,"content":3,"chunks":4}|};
      {|{"t":0,"src":1,"dst":1,"content":3,"chunks":4}|};
      {|{"t":0,"src":1,"dst":2,"content":3,"chunks":0}|};
      {|{"t":0,"src":-1,"dst":2,"content":3,"chunks":4}|};
      {|[1,2,3]|};
    ]

(* ------------------------------------------------------------------ *)
(* Session affinity *)

(* affinity = 0 must make no extra RNG draws at all, so the pair
   stream is byte-identical to a pre-affinity session *)
let test_affinity_zero_identical seed =
  let g = Topology.Builders.fig3 () in
  let plain = Workload.Session.create ~seed g in
  let zero = Workload.Session.create ~affinity:0. ~seed g in
  for i = 1 to 200 do
    let a = Workload.Session.draw plain and b = Workload.Session.draw zero in
    Alcotest.(check (pair int int))
      (Printf.sprintf "draw %d identical" i)
      a b
  done

let repeat_fraction session draws =
  let repeats = ref 0 and prev = ref None in
  for _ = 1 to draws do
    let p = Workload.Session.draw session in
    (match !prev with Some q when q = p -> incr repeats | _ -> ());
    prev := Some p
  done;
  float_of_int !repeats /. float_of_int (draws - 1)

(* an affinity-a draw repeats with probability at least a (chance
   collisions of fresh draws only add); the binomial z-band around a
   bounds it above *)
let test_affinity_sticks seed =
  let g = Topology.Builders.fig3 () in
  let draws = 2000 in
  let a = 0.8 in
  let f =
    repeat_fraction (Workload.Session.create ~affinity:a ~seed g) draws
  in
  let sd = sqrt (a *. (1. -. a) /. float_of_int draws) in
  Alcotest.(check bool)
    (Printf.sprintf "repeat fraction %.3f within [%.3f, %.3f]" f a
       (a +. (z *. sd) +. 0.1))
    true
    (f >= a && f <= a +. (z *. sd) +. 0.1);
  let f0 = repeat_fraction (Workload.Session.create ~seed g) draws in
  Alcotest.(check bool)
    (Printf.sprintf "independent draws rarely repeat (%.3f)" f0)
    true (f0 < 0.3)

let test_affinity_range () =
  let g = Topology.Builders.fig3 () in
  List.iter
    (fun a ->
      Alcotest.check_raises
        (Printf.sprintf "affinity %f rejected" a)
        (Invalid_argument "Session.create: affinity outside [0,1]")
        (fun () -> ignore (Workload.Session.create ~affinity:a ~seed:1L g)))
    [ -0.1; 1.1 ]

(* the spec-level wiring: affinity 0 leaves the generated request
   stream byte-identical to the default spec *)
let test_affinity_spec_zero_identical seed =
  let g = Topology.Builders.fig3 () in
  let base = { Workload.Gen.default with Workload.Gen.seed } in
  let zero = { base with Workload.Gen.affinity = 0. } in
  Alcotest.(check bool) "affinity-0 spec streams identically" true
    (Workload.Gen.requests base g = Workload.Gen.requests zero g)

let test_affinity_spec_concentrates seed =
  let g = Topology.Builders.fig3 () in
  let base =
    { Workload.Gen.default with Workload.Gen.seed; max_requests = 400 }
  in
  let sticky = { base with Workload.Gen.affinity = 0.9 } in
  let pairs spec =
    List.map
      (fun r -> (r.Workload.Request.src, r.Workload.Request.dst))
      (Workload.Gen.requests spec g)
  in
  let free = pairs base and bound = pairs sticky in
  Alcotest.(check int) "same stream length" (List.length free)
    (List.length bound);
  (* on a tiny graph the distinct pair *sets* can coincide; adjacent
     repeats are what affinity actually drives *)
  let reps ps =
    let r = ref 0 in
    ignore
      (List.fold_left
         (fun prev p ->
           (match prev with Some q when q = p -> incr r | _ -> ());
           Some p)
         None ps);
    !r
  in
  Alcotest.(check bool)
    (Printf.sprintf "sticky stream repeats adjacent pairs (%d > %d)"
       (reps bound) (reps free))
    true
    (reps bound > reps free)

(* ------------------------------------------------------------------ *)
(* Decoder fuzz: random and mutated strings through every decoder of
   untrusted input.  None may raise; each returns its typed error. *)

let fuzz_seeds =
  [
    {|{"t":0.5,"src":1,"dst":4,"content":7,"chunks":12}|};
    {|{"t":1e-3,"src":0,"dst":2,"content":0,"chunks":1}|};
    {|[1,-2.5e10,"a\"b\u00e9",true,false,null,{"k":[{}]}]|};
    {|{"a":{"b":[1,2,{"c":"\ud83d\ude00"}]},"n":-0.0}|};
  ]

let mutate rng s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_string b s;
  for _ = 1 to 1 + Random.State.int rng 4 do
    let cur = Buffer.contents b in
    let n = String.length cur in
    let pos = if n = 0 then 0 else Random.State.int rng (n + 1) in
    let pos = min pos n in
    let ch () =
      if Random.State.bool rng then "{}[],:\"\\-+.eE0123456789tfnu \n\r".[Random.State.int rng 27]
      else Char.chr (Random.State.int rng 256)
    in
    Buffer.clear b;
    match Random.State.int rng 4 with
    | 0 -> (* insert *)
      Buffer.add_string b (String.sub cur 0 pos);
      Buffer.add_char b (ch ());
      Buffer.add_string b (String.sub cur pos (n - pos))
    | 1 when pos < n -> (* replace *)
      Buffer.add_string b (String.sub cur 0 pos);
      Buffer.add_char b (ch ());
      Buffer.add_string b (String.sub cur (pos + 1) (n - pos - 1))
    | 2 -> (* truncate *) Buffer.add_string b (String.sub cur 0 pos)
    | _ -> (* duplicate a span *)
      let len = if n - pos = 0 then 0 else Random.State.int rng (n - pos) in
      Buffer.add_string b (String.sub cur 0 (pos + len));
      Buffer.add_string b (String.sub cur pos (n - pos))
  done;
  Buffer.contents b

let fuzz_input =
  let gen rng =
    match Random.State.int rng 3 with
    | 0 ->
      String.init (Random.State.int rng 40) (fun _ ->
          Char.chr (Random.State.int rng 256))
    | 1 ->
      let base = List.nth fuzz_seeds (Random.State.int rng (List.length fuzz_seeds)) in
      mutate rng base
    | _ ->
      (* several NDJSON lines, some mutated, mixed line endings *)
      String.concat ""
        (List.init (1 + Random.State.int rng 4) (fun _ ->
             let line =
               List.nth fuzz_seeds (Random.State.int rng (List.length fuzz_seeds))
             in
             let line = if Random.State.bool rng then mutate rng line else line in
             line ^ if Random.State.bool rng then "\n" else "\r\n"))
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen

let decoders_never_raise s =
  (match Obs.Json.parse s with
  | Ok j -> ignore (Workload.Request.of_json j : (_, string) result)
  | Error (_ : string) -> ());
  for chunk_size = 1 to 8 do
    let r = Obs.Json.Reader.of_string ~chunk_size s in
    Obs.Json.Reader.fold r
      (fun () -> function
        | Ok j -> ignore (Workload.Request.of_json j : (_, string) result)
        | Error (_ : string) -> ())
      ()
  done;
  let path = Filename.temp_file "fuzz" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      ignore (Workload.Trace.load_file path : (_, string) result));
  true

let prop_decoders_never_raise =
  QCheck.Test.make ~name:"decoders return errors, never raise" ~count:2_000
    fuzz_input decoders_never_raise

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [
      ( "zipf",
        at_seeds "rank-frequency slope" test_zipf_slope
        @ [ Alcotest.test_case "exact mass" `Quick test_zipf_mass ] );
      ("pareto", at_seeds "tail mass" test_pareto_tail);
      ( "arrivals",
        at_seeds "poisson inter-arrivals" test_poisson_interarrivals
        @ at_seeds "burst mass" test_burst_mass
        @ [ Alcotest.test_case "rate curve" `Quick test_rate_curve ] );
      ( "determinism",
        qc [ prop_same_seed_identical; prop_stream_well_formed ]
        @ at_seeds "catalog pure" test_catalog_pure
        @ at_seeds "arrivals pure" test_arrivals_pure
        @ [
            Alcotest.test_case "distinct seeds differ" `Quick
              test_distinct_seeds_differ;
            Alcotest.test_case "byte-identical at domains 1/2/4" `Quick
              test_domains_identical;
          ] );
      ( "affinity",
        at_seeds "zero is byte-identical" test_affinity_zero_identical
        @ at_seeds "sticky draws repeat" test_affinity_sticks
        @ at_seeds "spec zero identical" test_affinity_spec_zero_identical
        @ at_seeds "spec concentrates" test_affinity_spec_concentrates
        @ [ Alcotest.test_case "range check" `Quick test_affinity_range ] );
      ( "seq",
        at_seeds "of_seq = requests" test_seq_matches_list
        @ at_seeds "memoized prefix is persistent" test_seq_persistent
        @ at_seeds "lazy prefix = capped list" test_seq_prefix );
      ( "trace",
        at_seeds "round trip" test_trace_round_trip
        @ [
            Alcotest.test_case "foreign trace rejected" `Quick
              test_trace_rejects_foreign;
            Alcotest.test_case "bad request json rejected" `Quick
              test_request_json_rejects;
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| 0xF022 |])
              prop_decoders_never_raise;
          ] );
    ]

type t = {
  eng : Sim.Engine.t;
  s_interval : float;
  clock : (unit -> float) option;  (* wall clock for self-observation *)
  grid : Series.Grid.t;            (* one time per tick, shared by every series *)
  (* growable arrays in registration order; slots past the count are
     filler *)
  mutable series : Series.t array;
  mutable reads : (unit -> float) array;
  mutable n_probes : int;
  mutable hooks : (unit -> unit) array;
  mutable n_hooks : int;
  mutable started : bool;
  mutable samples : int;
  mutable probe_s : float;         (* cumulative wall time in sample_now *)
  mutable ticker : Sim.Engine.periodic option;
}

let create ~eng ~interval ?clock () =
  if interval <= 0. || Float.is_nan interval then
    invalid_arg "Sampler.create: interval <= 0";
  { eng; s_interval = interval; clock; grid = Series.Grid.create ();
    series = [||]; reads = [||]; n_probes = 0; hooks = [||]; n_hooks = 0;
    started = false; samples = 0; probe_s = 0.; ticker = None }

let interval t = t.s_interval

(* [a] with room for index [n], doubled when full.  The filler must
   not be a young value: [Array.make] forces a minor collection before
   filling a major-heap array with one. *)
let room a n filler =
  if n < Array.length a then a
  else begin
    let bigger = Array.make (max 16 (2 * n)) filler in
    Array.blit a 0 bigger 0 n;
    bigger
  end

let no_series = Series.on_grid (Series.Grid.create ()) ""
let no_read () = 0.
let no_hook () = ()

let track t ?labels name read =
  let s = Series.on_grid t.grid ?labels name in
  let n = t.n_probes in
  t.series <- room t.series n no_series;
  t.reads <- room t.reads n no_read;
  t.series.(n) <- s;
  t.reads.(n) <- read;
  t.n_probes <- n + 1;
  s

let on_sample t hook =
  let n = t.n_hooks in
  t.hooks <- room t.hooks n no_hook;
  t.hooks.(n) <- hook;
  t.n_hooks <- n + 1

(* Hooks run first and the probe count is read after them, so a probe
   a hook registers is sampled on this same tick.  Probes registered
   while the probes run start on the next tick. *)
let sample_now t =
  let now = Sim.Engine.now t.eng in
  let t0 = match t.clock with Some c -> c () | None -> 0. in
  let hooks = t.hooks in
  for i = 0 to t.n_hooks - 1 do
    hooks.(i) ()
  done;
  Series.Grid.push t.grid now;
  let series = t.series and reads = t.reads in
  for i = 0 to t.n_probes - 1 do
    Series.record series.(i) (reads.(i) ())
  done;
  (match t.clock with
  | Some c -> t.probe_s <- t.probe_s +. (c () -. t0)
  | None -> ());
  t.samples <- t.samples + 1

let start ?(stop = fun () -> false) t =
  if t.started then invalid_arg "Sampler.start: already started";
  t.started <- true;
  sample_now t;
  t.ticker <-
    Some
      (Sim.Engine.schedule_periodic t.eng ~interval:t.s_interval (fun () ->
           let continue = not (stop ()) in
           sample_now t;
           continue))

let stop t =
  match t.ticker with
  | Some p ->
    Sim.Engine.cancel_periodic p;
    t.ticker <- None
  | None -> ()

let running t =
  match t.ticker with
  | Some p -> Sim.Engine.periodic_active p
  | None -> false

let series t = List.init t.n_probes (Array.get t.series)

let find t ?labels name =
  List.find_opt
    (fun s ->
      Series.name s = name
      && match labels with None -> true | Some l -> Series.labels s = l)
    (series t)

let ticks t = t.samples
let probe_seconds t = t.probe_s
let self_observing t = t.clock <> None

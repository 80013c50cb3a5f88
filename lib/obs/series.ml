(* Change-point storage.  A grid holds every sample time once; a series
   stores only the grid ticks at which its value's bit pattern changed,
   plus the last tick it was recorded at.  The dense point at tick [i]
   (from the series' first tick up to [upto]) is the value of the
   latest change-point at or before [i]. *)

module Grid = struct
  type t = {
    mutable times : float array;
    mutable n : int;
  }

  let create () = { times = Array.make 16 0.; n = 0 }

  let check g time msg =
    if g.n > 0 && time < g.times.(g.n - 1) then invalid_arg msg

  let append g time =
    if g.n = Array.length g.times then begin
      let bigger = Array.make (2 * g.n) 0. in
      Array.blit g.times 0 bigger 0 g.n;
      g.times <- bigger
    end;
    g.times.(g.n) <- time;
    g.n <- g.n + 1

  let push g time =
    check g time "Series.Grid.push: time went backwards";
    append g time
end

type t = {
  s_name : string;
  s_labels : Metric.labels;
  grid : Grid.t;
  shared : bool;                 (* grid owned by a sampler: no [add] *)
  mutable ticks : int array;     (* grid tick of each change-point *)
  mutable values : float array;  (* value from that tick on *)
  mutable k : int;               (* change-points stored *)
  mutable upto : int;            (* last tick recorded, -1 before any *)
}

let make grid shared labels name =
  { s_name = name; s_labels = labels; grid; shared; ticks = [||];
    values = [||]; k = 0; upto = -1 }

let create ?(labels = []) name = make (Grid.create ()) false labels name
let on_grid grid ?(labels = []) name = make grid true labels name
let name t = t.s_name
let labels t = t.s_labels

let push_point t tick v =
  let k = t.k in
  if k = 0 then begin
    (* literals allocate inline: most series never need a second point *)
    t.ticks <- [| tick; 0 |];
    t.values <- [| v; 0. |]
  end
  else begin
    if k = Array.length t.ticks then begin
      let ticks = Array.make (2 * k) 0 and values = Array.make (2 * k) 0. in
      Array.blit t.ticks 0 ticks 0 k;
      Array.blit t.values 0 values 0 k;
      t.ticks <- ticks;
      t.values <- values
    end;
    t.ticks.(k) <- tick;
    t.values.(k) <- v
  end;
  t.k <- k + 1

let record t v =
  let tick = t.grid.Grid.n - 1 in
  if tick <= t.upto then invalid_arg "Series.record: no new grid tick";
  let k = t.k in
  (* bit patterns, not [=]: keeps 0./-0. and NaN payloads exact *)
  if k = 0
     || Int64.bits_of_float v
        <> Int64.bits_of_float (Array.unsafe_get t.values (k - 1))
  then push_point t tick v;
  t.upto <- tick

let add t ~time v =
  if t.shared then invalid_arg "Series.add: series is owned by a sampler";
  Grid.check t.grid time "Series.add: time went backwards";
  Grid.append t.grid time;
  record t v

let first t = t.ticks.(0)
let length t = if t.k = 0 then 0 else t.upto - first t + 1
let change_points t = t.k

(* index of the change-point in force at grid tick [tick] *)
let point_at t tick =
  let lo = ref 0 and hi = ref (t.k - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.ticks.(mid) <= tick then lo := mid else hi := mid - 1
  done;
  !lo

let get t i =
  if i < 0 || i >= length t then invalid_arg "Series.get: index out of bounds";
  let tick = first t + i in
  (t.grid.Grid.times.(tick), t.values.(point_at t tick))

let last t =
  if t.k = 0 then None
  else Some (t.grid.Grid.times.(t.upto), t.values.(t.k - 1))

let iter f t =
  let k = t.k and upto = t.upto in
  if k > 0 then begin
    let times = t.grid.Grid.times and ticks = t.ticks and values = t.values in
    let j = ref 0 in
    for i = ticks.(0) to upto do
      if !j + 1 < k && ticks.(!j + 1) <= i then incr j;
      f ~time:times.(i) values.(!j)
    done
  end

let to_list t =
  let acc = ref [] in
  if t.k > 0 then begin
    let times = t.grid.Grid.times in
    let j = ref (t.k - 1) in
    for i = t.upto downto first t do
      if t.ticks.(!j) > i then decr j;
      acc := (times.(i), t.values.(!j)) :: !acc
    done
  end;
  !acc

(* the dense values are the change-point values repeated, first
   appearances in the same order, so the first maximum under [>] is
   the same value bit for bit *)
let max_value t =
  let m = ref neg_infinity in
  for i = 0 to t.k - 1 do
    if t.values.(i) > !m then m := t.values.(i)
  done;
  !m

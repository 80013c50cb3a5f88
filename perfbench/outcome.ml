(* What one call produced, reduced to the fields the benchmark checks
   and digests: per-flow completion, the engine's event count and the
   router counters.  Built from [Protocol.run]'s result for untraced
   calls, and from the traced assembly's own state for traced ones;
   the two digests must agree on equal inputs. *)

type t = {
  fcts : float option array;
  received : int array;
  duplicates : int array;
  requests : int array;
  engine_events : int;
  drops : int;
  forwarded : int;
  detoured : int;
  custody_stored : int;
  custody_released : int;
  bp_engages : int;
  bp_releases : int;
  shed : int;
  detours_refused : int;
  collapse_episodes : int;
}

let of_result (r : Inrpp.Protocol.result) =
  let f g = Array.map g r.Inrpp.Protocol.flows in
  { fcts = f (fun fr -> fr.Inrpp.Protocol.fct);
    received = f (fun fr -> fr.Inrpp.Protocol.chunks_received);
    duplicates = f (fun fr -> fr.Inrpp.Protocol.duplicates);
    requests = f (fun fr -> fr.Inrpp.Protocol.requests_sent);
    engine_events = r.engine_events; drops = r.total_drops;
    forwarded = r.forwarded_data; detoured = r.detoured;
    custody_stored = r.custody_stored; custody_released = r.custody_released;
    bp_engages = r.bp_engages; bp_releases = r.bp_releases; shed = r.shed;
    detours_refused = r.detours_refused;
    collapse_episodes = r.collapse_episodes }

let digest t =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i fct ->
      Printf.bprintf b "%s %d %d %d;"
        (match fct with Some x -> Printf.sprintf "%h" x | None -> "-")
        t.received.(i) t.duplicates.(i) t.requests.(i))
    t.fcts;
  Printf.bprintf b "|%d %d %d %d %d %d %d %d %d %d %d" t.engine_events t.drops
    t.forwarded t.detoured t.custody_stored t.custody_released t.bp_engages
    t.bp_releases t.shed t.detours_refused t.collapse_episodes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let delivered t = Array.fold_left ( + ) 0 t.received

(* The output check: every flow is accounted for, and every completed
   flow received exactly its chunk count (no more than that otherwise).
   Returns the number of failed flows; a call whose check fails counts
   all its flows as failed. *)
let failed_flows t (specs : Inrpp.Protocol.flow_spec list) =
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let ok = ref (Array.length t.fcts = n) in
  let unfinished = ref 0 in
  if !ok then
    Array.iteri
      (fun i (s : Inrpp.Protocol.flow_spec) ->
        match t.fcts.(i) with
        | Some fct ->
          if t.received.(i) <> s.Inrpp.Protocol.chunks || not (fct >= 0.) then
            ok := false
        | None ->
          if t.received.(i) > s.Inrpp.Protocol.chunks then ok := false;
          incr unfinished)
      specs;
  if !ok then !unfinished else n

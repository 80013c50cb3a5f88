(* Golden-artefact regression: every paper-facing output of
   bench/main.exe is pinned by SHA-256.  Each test regenerates one
   artefact in-process (via Experiments.capture, which reproduces the
   CLI byte stream exactly) and compares against the digest stored in
   test/golden/artefacts.sha256.

   If an output changed on purpose, refresh the golden file with

     dune exec test/refresh_artefacts.exe

   and commit the diff. *)

(* `dune runtest` runs the action in _build/default/test; `dune exec`
   keeps the invoking cwd (the repo root) *)
let golden_path =
  if Sys.file_exists "golden/artefacts.sha256" then "golden/artefacts.sha256"
  else "test/golden/artefacts.sha256"

let golden =
  lazy
    (let ic = open_in golden_path in
     let rec loop acc =
       match input_line ic with
       | line ->
         let acc =
           (* "<64 hex chars>  <id>" *)
           match String.index_opt line ' ' with
           | Some i when i = 64 ->
             let digest = String.sub line 0 64 in
             let id =
               String.trim (String.sub line 64 (String.length line - 64))
             in
             (id, digest) :: acc
           | _ -> acc
         in
         loop acc
       | exception End_of_file ->
         close_in ic;
         List.rev acc
     in
     loop [])

let check_artefact id () =
  let expected =
    match List.assoc_opt id (Lazy.force golden) with
    | Some d -> d
    | None -> Alcotest.failf "no golden digest for %s - refresh the file" id
  in
  let run =
    match Experiments.find id with
    | Some f -> f
    | None -> Alcotest.failf "unknown experiment id %s" id
  in
  let out = Experiments.capture run in
  let actual = Check.Sha256.hex_digest out in
  if not (String.equal actual expected) then
    Alcotest.failf
      "artefact %s changed (%d bytes printed)@.  golden  %s@.  actual  %s@.If \
       intentional, refresh with: dune exec test/refresh_artefacts.exe"
      id (String.length out) expected actual

let ids =
  [
    "table1"; "fig3"; "fig4a"; "fig4b"; "custody"; "phases"; "backpressure";
    "protocols"; "popularity"; "overload";
  ]

(* The [loss] artefact is not pinned; its claim is banded instead:
   every transfer completes at every rate; the 0% row is the loss-free
   run event for event; and at 2% and 5% a packet is lost.  A lossy
   run whose dice never come up is the loss-free run event for event
   too, so a later completion shows that something was lost. *)
let test_loss_band () =
  let fct (r : Inrpp.Protocol.result) =
    match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
    | Some f -> f
    | None -> Alcotest.fail "transfer incomplete"
  in
  let rows =
    List.map
      (fun rate -> (rate, Experiments.loss_run ~loss_rate:rate ()))
      Experiments.loss_rates
  in
  List.iter
    (fun (rate, r) ->
      let f = r.Inrpp.Protocol.flows.(0) in
      Alcotest.(check int)
        (Printf.sprintf "%g%%: 200/200 delivered" (100. *. rate))
        200 f.Inrpp.Protocol.chunks_received;
      Alcotest.(check int)
        (Printf.sprintf "%g%%: completed" (100. *. rate))
        1 r.Inrpp.Protocol.completed)
    rows;
  let none = Experiments.loss_run () in
  let zero = List.assoc 0. rows in
  Alcotest.(check (float 0.)) "0% fct = no loss rate" (fct none) (fct zero);
  Alcotest.(check int) "0% engine events = no loss rate"
    none.Inrpp.Protocol.engine_events zero.Inrpp.Protocol.engine_events;
  Alcotest.(check int) "0% requests = no loss rate"
    none.Inrpp.Protocol.flows.(0).Inrpp.Protocol.requests_sent
    zero.Inrpp.Protocol.flows.(0).Inrpp.Protocol.requests_sent;
  List.iter
    (fun rate ->
      let r = List.assoc rate rows in
      Alcotest.(check bool)
        (Printf.sprintf "%g%% loses a packet (fct %.3f > %.3f)" (100. *. rate)
           (fct r) (fct none))
        true
        (fct r > fct none))
    [ 0.02; 0.05 ]

let () =
  Alcotest.run "artefacts"
    [
      ( "golden",
        List.map
          (fun id -> Alcotest.test_case id `Quick (check_artefact id))
          ids );
      ("bands", [ Alcotest.test_case "loss" `Quick test_loss_band ]);
    ]

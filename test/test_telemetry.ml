(* Telemetry-export regression: the sampled series (NDJSON and CSV)
   and the metric snapshot (NDJSON) of seven observed runs are pinned
   by SHA-256 in test/golden/telemetry.sha256 — an INRPP run on the
   EBONE isp_zoo flows, the same run with a live link outage, RCP,
   AIMD and HBH baseline runs on one dumbbell, an MPTCP run over
   fig3's two disjoint paths and a flow-level simulator run.  The ten
   artefact goldens carry no sampled series, so this is what pins the
   bytes Obs.Series/Obs.Sampler feed to Obs.Export.

   If an export changed on purpose, refresh the golden file with

     dune exec test/refresh_telemetry.exe

   and commit the diff. *)

let golden_path =
  if Sys.file_exists "golden/telemetry.sha256" then "golden/telemetry.sha256"
  else "test/golden/telemetry.sha256"

let golden =
  lazy
    (let ic = open_in golden_path in
     let rec loop acc =
       match input_line ic with
       | line ->
         let acc =
           (* "<64 hex chars>  <export>" *)
           if String.length line > 66 && line.[64] = ' ' then
             ( String.trim (String.sub line 64 (String.length line - 64)),
               String.sub line 0 64 )
             :: acc
           else acc
         in
         loop acc
       | exception End_of_file ->
         close_in ic;
         List.rev acc
     in
     loop [])

let check_run run () =
  List.iter
    (fun (id, bytes) ->
      let expected =
        match List.assoc_opt id (Lazy.force golden) with
        | Some d -> d
        | None -> Alcotest.failf "no golden digest for %s - refresh the file" id
      in
      let actual = Check.Sha256.hex_digest bytes in
      if not (String.equal actual expected) then
        Alcotest.failf
          "telemetry export %s changed (%d bytes)@.  golden  %s@.  actual  \
           %s@.If intentional, refresh with: dune exec \
           test/refresh_telemetry.exe"
          id (String.length bytes) expected actual)
    (run ())

let () =
  Alcotest.run "telemetry"
    [
      ( "golden",
        List.map
          (fun (name, run) -> Alcotest.test_case name `Quick (check_run run))
          Telemetry_runs.runs );
    ]

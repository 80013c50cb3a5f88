(* Regenerate test/golden/telemetry.sha256.

   Usage (from the repo root):

     dune exec test/refresh_telemetry.exe

   Replays the observed runs the telemetry golden test pins, digests
   each export and rewrites the golden file.  Review the resulting
   diff before committing: a changed digest means exported telemetry
   bytes changed. *)

let () =
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else "test/golden/telemetry.sha256"
  in
  let oc = open_out path in
  List.iter
    (fun (_, run) ->
      List.iter
        (fun (id, bytes) ->
          let digest = Check.Sha256.hex_digest bytes in
          Printf.fprintf oc "%s  %s\n" digest id;
          Printf.printf "%s  %s  (%d bytes)\n%!" digest id (String.length bytes))
        (run ()))
    Telemetry_runs.runs;
  close_out oc;
  Printf.printf "wrote %s\n" path

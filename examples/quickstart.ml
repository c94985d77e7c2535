(* Quickstart: the complete path the paper describes, on its own running
   example — analyze a Pthread program, translate it to RCCE, and execute
   both on the simulated SCC.

     dune exec examples/quickstart.exe
*)

let () =
  print_endline "=== 1. The Pthread program (the paper's Example 4.1) ===\n";
  print_string Exp.Example41.source;

  (* One compilation session: the translator below reuses the memoized
     Stage 1-3 facts these tables demand, so nothing is analyzed twice *)
  let program = Exp.Example41.parse () in
  let session = Session.create program in
  let analysis = Session.pipeline session in
  print_endline "\n=== 2. Analysis (Tables 4.1 and 4.2) ===\n";
  print_string
    (Obs.render_table ~rule:true (Analysis.Pipeline.table_4_1 analysis));
  print_newline ();
  print_string
    (Obs.render_table ~rule:true (Analysis.Pipeline.table_4_2 analysis));

  (* Stages 4-5: partition shared data and translate to RCCE *)
  let translated, report = Translate.Driver.translate_session session in
  print_endline "\n=== 3. The translated RCCE program (Example 4.2) ===\n";
  print_string (Cfront.Pretty.program translated);
  print_endline "\nWhat the passes did:";
  List.iter
    (fun note -> Printf.printf "  - %s\n" note)
    report.Translate.Driver.notes;

  (* Execute both versions on the simulated SCC *)
  print_endline "\n=== 4. Both versions on the simulated SCC ===\n";
  let original = Cexec.Interp.run_pthread program in
  Printf.printf "Original (3 threads, 1 core), %.2f us simulated:\n%s\n"
    (float_of_int original.Cexec.Interp.elapsed_ps /. 1e6)
    original.Cexec.Interp.output;
  let converted = Cexec.Interp.run_rcce ~ncores:3 translated in
  Printf.printf "Converted (3 cores), %.2f us simulated:\n%s\n"
    (float_of_int converted.Cexec.Interp.elapsed_ps /. 1e6)
    converted.Cexec.Interp.output;
  Printf.printf "Speedup: %.1fx\n"
    (float_of_int original.Cexec.Interp.elapsed_ps
    /. float_of_int converted.Cexec.Interp.elapsed_ps)

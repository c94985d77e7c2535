(* Test runner: one suite per library area. *)

let () =
  Alcotest.run "hsmc"
    [
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("preproc", Test_preproc.suite);
      ("ctype", Test_ctype.suite);
      ("visit", Test_visit.suite);
      ("ir", Test_ir.suite);
      ("analysis", Test_analysis.suite);
      ("partition", Test_partition.suite);
      ("translate", Test_translate.suite);
      ("session", Test_session.suite);
      ("scc", Test_scc.suite);
      ("rcce", Test_rcce.suite);
      ("workloads", Test_workloads.suite);
      ("interp", Test_interp.suite);
      ("exp", Test_exp.suite);
      ("extensions", Test_extensions.suite);
      ("lockset", Test_lockset.suite);
      ("diag", Test_diag.suite);
      ("race", Test_race.suite);
      ("absint", Test_absint.suite);
      ("optimize", Test_optimize.suite);
      ("trace", Test_trace.suite);
      ("obs", Test_obs.suite);
      ("profile", Test_profile.suite);
      ("csrc-suite", Test_csrc_suite.suite);
      ("sweep", Test_sweep.suite);
      ("fuzz", Test_fuzz.suite);
      ("conform", Test_conform.suite);
      ("opt", Test_opt.suite);
      ("critpath", Test_critpath.suite);
      ("synth", Test_synth.suite);
    ]

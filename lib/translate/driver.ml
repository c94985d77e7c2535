open Cfront

(* The Driver, in Cetus terms: runs the analysis phase (Stages 1-3), the
   partitioner (Stage 4), and the transform passes (Stage 5) over one
   compilation session, producing the RCCE program plus a report of what
   happened.  All facts come from the session's registry, so a caller
   that already demanded them (e.g. [hsmcc check] before an internal
   translate) pays for each analysis exactly once. *)

type report = {
  analysis : Analysis.Pipeline.t;
  partition : Partition.Partitioner.result;
  notes : string list;        (* pass remarks, in emission order *)
  thread_count : int option;  (* statically determined thread count *)
  diagnostics : Diag.t list;  (* static race detector findings *)
}

type error =
  | Parse_error of string
  | Too_many_threads of int * int
  | Too_many_locks of int
  | Inconsistent_ir of string * string

let error_to_string = function
  | Parse_error msg -> msg
  | Too_many_threads (threads, cores) ->
      Printf.sprintf
        "program creates %d threads but the target has %d cores \
         (many-to-one mapping is future work, see paper section 7.2)"
        threads cores
  | Too_many_locks n ->
      Printf.sprintf
        "program uses more distinct mutexes than the target's %d \
         test-and-set registers" n
  | Inconsistent_ir (pass, diag) ->
      Printf.sprintf "pass '%s' produced inconsistent IR: %s" pass diag

exception Error of error

let passes =
  [
    Thread_to_process.pass;
    Mutex_convert.pass;
    Remove_pthread.pass;
    Shared_rewrite.pass;
    Add_rcce.pass;
    Cleanup.pass;
  ]

let passes_for (options : Pass.options) =
  if options.Pass.optimize then
    [ Thread_to_process.pass; Mutex_convert.pass; Remove_pthread.pass;
      Shared_rewrite.pass; Add_rcce.pass; Opt_mpb_cache.pass; Opt_pre.pass;
      (* folding runs after the locality passes (it can clean up their
         emitted code) and before cleanup so folded-away uses make
         declarations dead *)
      Optimize.pass; Cleanup.pass ]
  else passes

let translate_session session =
  (* the checker that runs after each pass runs on the input first, so
     an undeclared identifier is the user's error, not a pass's *)
  (match Wellformed.check (Session.program session) with
  | Ok () -> ()
  | Error e -> raise (Error (Parse_error e)));
  let ctx = Pass.ctx_of_session session in
  let analysis = Pass.analysis ctx in
  (* the static race check and the thread count ride on the source
     program's facts: demand them before any pass publishes a new
     generation (memoized — free if the caller already checked) *)
  let diagnostics = Session.race_diags session in
  let thread_count =
    Analysis.Thread_analysis.static_thread_count
      analysis.Analysis.Pipeline.threads
  in
  match
    Pass.run_all
      (passes_for (Session.options session))
      ctx (Session.program session)
  with
  | translated ->
      let report =
        {
          analysis;
          partition = Pass.partition ctx;
          notes = Pass.notes ctx;
          thread_count;
          diagnostics;
        }
      in
      (translated, report)
  | exception Thread_to_process.Too_many_threads (threads, cores) ->
      raise (Error (Too_many_threads (threads, cores)))
  | exception Mutex_convert.Too_many_locks n ->
      raise (Error (Too_many_locks n))
  | exception Pass.Inconsistent (pass, diag) ->
      raise (Error (Inconsistent_ir (pass, diag)))

let translate_program ?(options = Pass.default_options) program =
  translate_session (Session.create ~options program)

let translate_source ?options ?file src =
  match Parser.program ?file src with
  | program -> translate_program ?options program
  | exception Srcloc.Error (loc, msg) ->
      raise
        (Error (Parse_error (Printf.sprintf "%s: %s" (Srcloc.to_string loc) msg)))

let translate_to_string ?options ?file src =
  let program, report = translate_source ?options ?file src in
  (Pretty.program program, report)

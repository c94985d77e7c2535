open Cfront

(** The Driver: analysis (Stages 1–3), partitioning (Stage 4) and the
    transform passes (Stage 5) in series. *)

type report = {
  analysis : Analysis.Pipeline.t;
  partition : Partition.Partitioner.result;
  notes : string list;        (** pass remarks, in emission order *)
  thread_count : int option;  (** statically determined thread count *)
  diagnostics : Diag.t list;
      (** static race detector findings on the input program *)
}

type error =
  | Parse_error of string
  | Too_many_threads of int * int
  | Too_many_locks of int
  | Inconsistent_ir of string * string

val error_to_string : error -> string

exception Error of error

val passes : Pass.t list
(** The paper-faithful Stage 5 pipeline, in execution order. *)

val passes_for : Pass.options -> Pass.t list
(** The pipeline for the given options (inserts {!Optimize} when
    requested). *)

val translate_session : Session.t -> Ast.program * report
(** Translate the session's program, demanding every Stage 1–4 fact from
    the session's memoized registry — analyses a caller already forced
    (e.g. a race check) are not recomputed.  Each transform publishes a
    new program generation into the session, so afterwards
    [Session.program] is the translated program and [Session.timings]
    carries the per-provider/per-pass instrumentation.  The input is
    checked first ({!Cfront.Wellformed.check}); an ill-formed one is a
    [Parse_error].
    @raise Error on any translation failure. *)

val translate_program :
  ?options:Pass.options -> Ast.program -> Ast.program * report
(** {!translate_session} on a fresh single-use session.
    @raise Error on any translation failure. *)

val translate_source :
  ?options:Pass.options -> ?file:string -> string -> Ast.program * report

val translate_to_string :
  ?options:Pass.options -> ?file:string -> string -> string * report
(** Convenience: parse, translate and pretty-print back to C source. *)

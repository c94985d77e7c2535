open Cfront

(* Library facade: mode detection and the interval instantiation of the
   thread-modular engine. *)

module Domain_sig = Domain_sig
module Itv = Itv
module Aval = Aval
module Oblig = Oblig
module Engine = Engine
module Report = Report
module Sharpen = Sharpen

module Interval_engine = Engine.Make (Itv)

(* A program is analyzed under RCCE semantics when it defines the
   [RCCE_APP] entry point (the shape [lib/translate] emits); everything
   else is treated as a Pthread program. *)
let detect_mode (program : Ast.program) =
  if Ast.find_function program "RCCE_APP" <> None then Oblig.Rcce
  else Oblig.Pthread

(* Over one generation's symbol table and CFGs, the session's facts. *)
let analyze ?(interference = true) ~ncores symtab cfgs =
  let mode = detect_mode (Ir.Symtab.program symtab) in
  Interval_engine.run { Engine.mode; ncores; interference } symtab cfgs

(* Re-exported report helpers, so consumers need only [Absint]. *)
let diags_of = Report.diags_of
let render_human = Report.render_human
let render_json = Report.render_json

open Cfront

(* Pass manager in the style of the Cetus framework the paper builds on:
   each component is an analysis or transform pass, and a driver runs
   them in series.  Passes are session-aware: they request the Stage 1-4
   facts from the compilation session's registry (pinned to the source
   program's generation) instead of receiving a pre-baked environment,
   and every transform publishes its result as a new program generation.
   After each transform the IR is checked structurally, in memory —
   scope-closed identifiers, names kept apart, a rebuildable symbol
   table, and no orphaned nodes of a family an earlier pass removed. *)

(* The translation options live with the session (the fact providers
   need them); re-exported here so pass code and callers keep the
   familiar [Pass.options] spelling. *)
type options = Session.options = {
  ncores : int;
  capacity : int;
  strategy : Partition.Partitioner.strategy;
  sound_locals : bool;
  many_to_one : bool;
  optimize : bool;
  sharpen : bool;
}

let default_options = Session.default_options

type ctx = {
  session : Session.t;
  base_analysis : Analysis.Pipeline.t;
      (* Stage 1-3 facts of the source program, pinned: transforms
         consume the analysis of what the user wrote, not of the
         half-rewritten intermediate generations *)
  base_partition : Partition.Partitioner.result;
  base_races : Analysis.Race.t;
      (* static race report of the source program, pinned: the PRE
         pass's no-concurrent-writer legality must speak about the
         program the user wrote (on the RCCE generation every unguarded
         core-0 init store would look racy) *)
  mutable notes : string list;   (* pass-emitted remarks, reverse order *)
}

let ctx_of_session session =
  {
    session;
    base_analysis = Session.pipeline session;
    base_partition = Session.partition session;
    base_races = Session.races session;
    notes = [];
  }

let session ctx = ctx.session
let options ctx = Session.options ctx.session
let analysis ctx = ctx.base_analysis
let partition ctx = ctx.base_partition
let source_races ctx = ctx.base_races

let note ctx fmt =
  Printf.ksprintf (fun msg -> ctx.notes <- msg :: ctx.notes) fmt

let notes ctx = List.rev ctx.notes

type t = {
  name : string;
  transform : ctx -> Ast.program -> Ast.program;
  forbids_after : string list;
      (* identifier/type/call/include prefixes this pass removes; they
         must never reappear in any later generation *)
  must_follow : string list;
      (* passes this one depends on: when both are scheduled, every
         named pass must come earlier.  A pass named here but absent
         from the schedule (e.g. dropped by a sabotage run) imposes
         nothing. *)
}

exception Inconsistent of string * string
(** [Inconsistent (pass, diagnostic)]: a transform produced a program
    that is no longer structurally well-formed. *)

(* Ordering constraints are checked before anything runs: a schedule
   where a pass precedes one of its [must_follow] dependencies is a
   driver bug, reported as Inconsistent without touching the program. *)
let validate_order passes =
  let scheduled = List.map (fun p -> p.name) passes in
  let (_ : string list) =
    List.fold_left
      (fun seen p ->
        List.iter
          (fun dep ->
            if List.mem dep scheduled && not (List.mem dep seen) then
              raise
                (Inconsistent
                   ( p.name,
                     Printf.sprintf
                       "scheduled before '%s', which it must follow" dep )))
          p.must_follow;
        p.name :: seen)
      [] passes
  in
  ()

let run_all passes ctx program =
  validate_order passes;
  let _, program =
    List.fold_left
      (fun (forbid, program) pass ->
        let program =
          Session.record_pass ctx.session ~name:pass.name (fun () ->
              pass.transform ctx program)
        in
        (* publish the new generation: cached facts invalidate, and any
           fact demanded below recomputes against this program *)
        Session.set_program ctx.session program;
        let forbid = pass.forbids_after @ forbid in
        Session.record_pass ctx.session ~name:"structural-check" (fun () ->
            match Wellformed.check ~forbid program with
            | Ok () -> ()
            | Error e -> raise (Inconsistent (pass.name, e)));
        (* the symbol table is a session fact of the new generation:
           rebuilding it proves declarations are still consistent *)
        (match Session.symtab ctx.session with
        | (_ : Ir.Symtab.t) -> ()
        | exception Srcloc.Error (loc, msg) ->
            raise
              (Inconsistent
                 (pass.name, Printf.sprintf "%s: %s" (Srcloc.to_string loc) msg)));
        (forbid, program))
      ([], program) passes
  in
  program

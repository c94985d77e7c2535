open Cfront

(** Pass manager in the style of the Cetus framework: transform passes
    run in series against a compilation session, each publishing its
    result as a new program generation, with a structural (in-memory)
    IR well-formedness check after every transform. *)

type options = Session.options = {
  ncores : int;
  capacity : int;
      (** on-chip bytes available for shared data; 0 = all off-chip *)
  strategy : Partition.Partitioner.strategy;
  sound_locals : bool;
      (** hoist shared locals into shared memory (the thesis's example
          output leaves them on the process stack) *)
  many_to_one : bool;
      (** map several threads onto one core with a task loop instead of
          rejecting programs with more threads than cores (the paper's
          section 7.2 future work) *)
  optimize : bool;
      (** the full optimizer bundle: MPB software caching, PRE of shared
          loads, constant folding + dead-branch elimination *)
  sharpen : bool;
      (** feed proven thread-locality facts from the abstract
          interpretation back into the sharing lattice before
          partitioning *)
}

val default_options : options
(** 48 cores, all-off-chip placement, paper-faithful behaviour. *)

type ctx
(** What a pass sees: the session (for options, notes and current-
    generation facts) plus the Stage 1–4 facts pinned to the source
    program — transforms consume the analysis of what the user wrote,
    not of half-rewritten intermediate generations. *)

val ctx_of_session : Session.t -> ctx
(** Demands the Stage 1–3 pipeline and the Stage-4 partition from the
    session (memoized there) and pins them for the pass run. *)

val session : ctx -> Session.t
val options : ctx -> options

val analysis : ctx -> Analysis.Pipeline.t
(** The pinned Stage 1–3 facts of the source program. *)

val partition : ctx -> Partition.Partitioner.result
(** The pinned Stage-4 partition of the source program. *)

val source_races : ctx -> Analysis.Race.t
(** The pinned static race report of the source program — the PRE
    pass's no-concurrent-writer interference facts. *)

val note : ctx -> ('a, unit, string, unit) format4 -> 'a
(** Record a remark about what a pass did. *)

val notes : ctx -> string list
(** Remarks in emission order. *)

type t = {
  name : string;
  transform : ctx -> Ast.program -> Ast.program;
  forbids_after : string list;
      (** name prefixes (identifiers, types, calls, includes) this pass
          removes; the structural checker rejects any later generation
          where one survives — e.g. ["pthread"] after the removal pass *)
  must_follow : string list;
      (** passes this one depends on: when both are scheduled, every
          named pass must come earlier; names absent from the schedule
          impose nothing (so sabotage drop-pass runs stay valid) *)
}

exception Inconsistent of string * string
(** [(pass, diagnostic)]: a transform produced a structurally ill-formed
    program. *)

val validate_order : t list -> unit
(** Check the [must_follow] constraints of a schedule.
    @raise Inconsistent when a pass precedes one of its dependencies. *)

val run_all : t list -> ctx -> Ast.program -> Ast.program
(** Run passes in order ({!validate_order} is checked first).  Each
    transform is timed into the session's instrumentation table and
    publishes a new program generation, and the structural checker runs
    after each — {!Wellformed.check} with the accumulated
    [forbids_after] prefixes enforced.  No fact is demanded of the new
    generations here.
    @raise Inconsistent on the first violation. *)

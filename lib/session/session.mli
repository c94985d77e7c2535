open Cfront

(** A compilation session: one parsed program plus a registry of typed,
    lazily-computed, memoized analysis {e facts}.

    Every consumer of the Stage 1–4 analyses — [hsmcc check],
    [hsmcc translate], the experiments harness, the tests — works
    against one session, so each fact is computed {b at most once} per
    program generation no matter how many commands ride on it.  The
    session is the only driver of the analyses and the only builder of
    a generation's symbol table and CFGs: every analysis takes them as
    facts.  A
    transform pass publishing a rewritten program ({!set_program}) bumps
    the generation and invalidates every cached fact; the next demand
    recomputes against the new program.

    Each provider records how often it ran and how much wall-clock it
    spent; {!timings} / {!render_timings} surface that as the
    [hsmcc translate --timings] report. *)

(** {1 Options} *)

type options = {
  ncores : int;            (** cores of the target chip *)
  capacity : int;          (** on-chip bytes available for shared data *)
  strategy : Partition.Partitioner.strategy;
  sound_locals : bool;
      (** hoist shared locals into shared memory (the thesis's example
          output leaves them on the process stack) *)
  many_to_one : bool;
      (** map several threads onto one core with a task loop instead of
          rejecting programs with more threads than cores *)
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

(** {1 Sessions} *)

type t

val create : ?file:string -> ?options:options -> Ast.program -> t

val program : t -> Ast.program
(** The current program (the latest generation). *)

val file : t -> string option
val options : t -> options

val generation : t -> int
(** Starts at 0; incremented by every {!set_program}. *)

val set_program : t -> Ast.program -> unit
(** Publish a transformed program: bumps the generation and invalidates
    every cached fact.  Instrumentation counters are cumulative across
    generations. *)

(** {1 Facts}

    Each accessor demands one provider; dependencies are forced first,
    so a single call computes exactly the transitive closure it needs.
    All raise [Srcloc.Error] on semantic errors in the program (e.g.
    duplicate declarations), like the underlying analyses. *)

val symtab : t -> Ir.Symtab.t

val scope : t -> Analysis.Scope_analysis.t
(** Stage 1.  Note the record is refined in place by the Stage 2/3
    providers; demand {!pipeline} for the all-stages-applied view. *)

val threads : t -> Analysis.Thread_analysis.t
(** Stage 2. *)

val points_to : t -> Analysis.Points_to.t
(** Stage 3. *)

val access_counts : t -> Analysis.Access_count.t

val sharing_snapshots :
  t ->
  Analysis.Pipeline.snapshot
  * Analysis.Pipeline.snapshot
  * Analysis.Pipeline.snapshot
(** Sharing status after Stages 1/2/3 — the Table 4.2 columns. *)

val pipeline : t -> Analysis.Pipeline.t
(** The assembled Stage 1–3 record every downstream consumer takes. *)

val cfgs : t -> (string * Ir.Cfg.t) list
(** One control-flow graph per function, in program order: the graphs
    points-to, the lockset dataflow and the abstract interpretation
    solve over. *)

val locksets : t -> (string * Analysis.Lockheld.t) list
(** Must-hold lockset dataflow solution per function. *)

val races : t -> Analysis.Race.t
val race_diags : t -> Diag.t list
val partition : t -> Partition.Partitioner.result
(** Stage 4, using the session options' strategy and capacity. *)

val absint_summary : t -> Absint.Oblig.summary
(** Thread-modular abstract interpretation of the current generation:
    one proof obligation per indexed or dereferenced access, spawn-site
    thread-id intervals, and per-global thread-extent facts.  The mode
    (Pthread vs RCCE) is detected from the program shape. *)

val bounds_verdict : t -> Diag.t list
(** One diagnostic per undischarged obligation of {!absint_summary}
    (warning when unproved, error when definitely out of bounds). *)

val sync_regions : t -> Opt.Sync_regions.t
(** Sync-free regions of the current generation: per-function CFG region
    ids plus transitive does-this-call-synchronize summaries. *)

val opt_plan : t -> Opt.Opt_plan.t
(** The locality plan of the current generation: shared allocations,
    escape/read-only classification, and capacity-checked MPB software-
    cache candidates.  Meaningful on the translated (RCCE) generation. *)

val sharpened : t -> string list
(** Demote globals the abstract interpretation proved thread-local from
    [Shared] to [Private]; returns the demoted names.  Forced by
    {!pipeline} when the session options set [sharpen]. *)

(** {1 Instrumentation} *)

type timing = {
  t_name : string;
  t_kind : [ `Fact | `Pass ];
  t_invocations : int;
  t_wall_s : float;         (** cumulative across generations *)
  t_deps : string list;     (** provider names this one demands *)
}

val timings : t -> timing list
(** Every provider or pass that ran, in first-invocation order. *)

val invocations : t -> string -> int
(** Cumulative invocation count of a provider (0 if it never ran). *)

val facts_computed : t -> int
(** Total fact-provider invocations (passes excluded). *)

val record_pass : t -> name:string -> (unit -> 'a) -> 'a
(** Time an arbitrary unit of work (a Stage-5 transform pass, the
    structural validator) into the same table as the fact providers. *)

val spans : t -> Obs.Spans.t
(** One wall-clock span per provider/pass invocation, epoch-rebased to
    the session's creation time. *)

val chrome_events : t -> Obs.Chrome.event list
(** The spans as Chrome trace events under a dedicated compiler process
    (pid 9999), mergeable with simulator traces via
    [Obs.Chrome.write_merge] for one Perfetto view of a
    compile-then-simulate run. *)

val render_timings : t -> string
(** Human-readable table, one row per provider/pass. *)

val render_timings_json : t -> string
(** One JSON array of objects with keys [name], [kind], [invocations],
    [wall_ms], [deps] — same conventions as [Diag]'s JSON renderer. *)

val timings_format_of_string : string -> [ `Table | `Json ] option
(** Recognizes ["table"] (alias ["text"]) and ["json"]. *)

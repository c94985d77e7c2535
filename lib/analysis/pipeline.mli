(** The analysis phase of the framework: Stages 1–3 in order, with a
    snapshot of every variable's sharing status after each stage (the
    columns of Table 4.2). *)

type snapshot = Sharing.status Ir.Var_id.Map.t

type t = {
  scope : Scope_analysis.t;
  threads : Thread_analysis.t;
  points_to : Points_to.t;
  access : Access_count.t;
  after_stage1 : snapshot;
  after_stage2 : snapshot;
  after_stage3 : snapshot;
}

(** {2 Individual stages}

    The demand-driven compilation session ([Session]), the only driver,
    runs each stage as its own memoized fact provider and assembles [t].
    Stages 2 and 3 refine the Stage-1 scope table in place, so they must
    be forced in order; each returns the sharing snapshot taken after it
    ran (a Table 4.2 column). *)

val stage1 : Ir.Symtab.t -> Scope_analysis.t * snapshot
val stage2 : Scope_analysis.t -> Thread_analysis.t * snapshot

val stage3 :
  Ir.Symtab.t -> Scope_analysis.t -> (string * Ir.Cfg.t) list ->
  Points_to.t * snapshot

val shared_variables : t -> Varinfo.t list
(** All variables whose final status is Shared, in declaration order. *)

val is_shared : t -> Ir.Var_id.t -> bool

val table_4_1 : t -> string list list
(** Header row plus one row per variable (the paper's Table 4.1). *)

val table_4_2 : t -> string list list
(** Header row plus per-variable status after Stages 1/2/3 (Table 4.2). *)

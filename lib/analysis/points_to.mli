(** Stage 3: interprocedural points-to analysis.

    Pointer relationships are extracted from assignments (including through
    function calls and [pthread_create]'s argument), propagated over each
    function's CFG to a fixed point, and merged into a whole-program
    relationship map.  Relations are [Definite] when they hold on every
    path and [Possible] otherwise. *)

type definiteness = Definite | Possible

type target = Tvar of Ir.Var_id.t | Tnull | Tunknown

type t

val run : Ir.Symtab.t -> (string * Ir.Cfg.t) list -> t
(** Solve over every function's CFG (the session's [cfgs] fact, in
    program order). *)

val relationships : t -> (Ir.Var_id.t * target * definiteness) list
(** Every (pointer, target, definiteness) triple of the final map. *)

val targets_of : t -> Ir.Var_id.t -> (target * definiteness) list

val definite_var_targets : t -> Ir.Var_id.t -> Ir.Var_id.t list
(** Variables this pointer definitely points at. *)

val refine_sharing : Scope_analysis.t -> t -> unit
(** The paper's Algorithm 2: iteratively mark the definite targets of
    shared pointers as Shared.  [Possible] relations are not followed,
    as in the paper. *)

val demote_unused_globals : Scope_analysis.t -> unit
(** Stage-3 post-processing: globals never read nor written become
    Private. *)

val target_to_string : target -> string
val definiteness_to_string : definiteness -> string

open Cfront

(** Forward must-hold-locks dataflow over one function's CFG: the set of
    mutexes provably held at every program point (join = intersection).
    Recognizes [pthread_mutex_lock]/[pthread_mutex_unlock] and the RCCE
    [RCCE_acquire_lock]/[RCCE_release_lock] pair with statically-known
    lock numbers. *)

type fact = All | Held of Ir.Var_id.Set.t
(** [All] is the unreached top of the must lattice. *)

type t

val analyze : Ir.Symtab.t -> Ir.Cfg.t -> t
(** Solve over one function's CFG (the session's [cfgs] fact). *)

val cfg : t -> Ir.Cfg.t
(** The CFG the solution is indexed by. *)

val held_before : t -> int -> Ir.Var_id.Set.t
(** Locks held on every path before node [id] executes (empty for
    unreachable nodes). *)

val held_after : t -> int -> Ir.Var_id.Set.t

val mutex_of_arg :
  Ir.Symtab.t -> func:string option -> Ast.expr -> Ir.Var_id.t option
(** Base variable of a mutex argument ([&m], [m], [mutexes[i]]). *)

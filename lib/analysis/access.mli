open Cfront

(** Read/write classification of variable occurrences, shared by Stage 1
    and Stage 4's dynamic access estimation.  The conventions are
    documented at the top of the implementation. *)

type kind = Read | Write

type sink = kind -> Ir.Var_id.t -> unit

val visit : (string -> Ir.Var_id.t option) -> sink -> Ast.expr -> unit
(** [visit resolve sink e] reports every classified variable access in
    [e]; names [resolve] cannot map (function references, [NULL]) are
    skipped. *)

val visit_decl : (string -> Ir.Var_id.t option) -> sink -> Ast.decl -> unit
(** Accesses of a declaration: the initializer write plus its reads. *)

val visit_stmt :
  (string -> Ir.Var_id.t option) ->
  trips:(Ast.stmt -> int) -> (int -> sink) -> weight:int -> Ast.stmt -> unit
(** [visit_stmt resolve ~trips f ~weight s] reports every access of [s]
    and its nested statements, a declaration's initializer write
    included, to [f m], where [m] is [weight] times [trips l] for each
    loop [l] whose body holds the access.  Stage 1 counts with
    [trips = fun _ -> 1]; Stage 4 with loop trip estimates. *)

open Cfront

(** Sync-free region analysis over the per-function CFGs.

    A region is a maximal set of CFG nodes connected without crossing a
    synchronization point (RCCE barrier/lock/flag/collective operations,
    their Pthread counterparts, or a call into a defined function that
    transitively synchronizes).  In a data-race-free program no other
    core's write can be ordered between two same-region reads, so shared
    loads are stable within a region — the legality backbone of the PRE
    pass. *)

val is_sync_primitive : string -> bool

type func_regions = {
  fr_name : string;
  fr_region : int array;  (** CFG node id -> region id *)
  fr_count : int;         (** distinct regions *)
  fr_boundaries : int;    (** synchronization nodes *)
}

type t = {
  funcs : func_regions list;
  has_sync : (string, bool) Hashtbl.t;
}

val analyze : cfgs:(string * Ir.Cfg.t) list -> Ast.program -> t

val func_has_sync : t -> string -> bool
(** Does calling this defined function (transitively) synchronize? *)

val expr_has_sync : t -> Ast.expr -> bool
val stmt_has_sync : t -> Ast.stmt -> bool
(** Does evaluating this expression / statement (including everything
    nested in it) reach a synchronization point? *)

val region_count : t -> string -> int option

val summary : t -> string
(** One line per function, for notes and tests. *)

open Cfront

(** Pre-execution identifier resolution.

    A one-shot pass over the AST that binds every identifier once, by
    C's block-scoping rule, and interns it to an integer slot, so the
    interpreter's hot path is array indexing and no name is looked up
    at run time.  It first names every local apart
    ({!Cfront.Scope.uniquify}, which changes nothing on a parsed program
    or a translation), so one table from name to slot per function binds
    as C does:

    - a name that a parameter or a local declaration in scope binds
      becomes an offset into the function's frame ([Local]); every
      parameter and every declaration has a slot of its own;
    - any other name that some global declares becomes an index into
      the per-process global table ([Global]);
    - anything else is [Unbound], an error only when evaluated (builtin
      arguments that are never evaluated, such as [RCCE_COMM_WORLD],
      may name nothing).

    Literals, [sizeof], and the ambient constants that have a value
    ({!Cfront.Scope.ambient}: [NULL] and the RCCE flag values) are
    folded to values; call targets are split into user-function indices
    and builtin names.  The original name strings ride along on every
    variable reference purely for diagnostics. *)

type slot =
  | Local of int   (** offset into the current function's frame *)
  | Global of int  (** index into the per-process global table *)
  | Unbound        (** nothing binds the name: an error if evaluated *)

type rexpr =
  | Rlit of Value.t
  | Rstr of string
  | Rvar of slot * string
  | Runary of Ast.unop * rexpr
  | Rbinary of Ast.binop * rexpr * rexpr
  | Rassign of Ast.binop option * rexpr * rexpr
  | Rcond of rexpr * rexpr * rexpr
  | Rcall_user of int * rexpr list  (** index into [rp_funcs] *)
  | Rcall_builtin of string * rexpr list * Ast.expr list
      (** builtin args both resolved (for evaluation) and syntactic
          (for [pthread_create] target and sync-object naming) *)
  | Rindex of rexpr * rexpr
  | Rcast of Ctype.t * rexpr
  | Rcomma of rexpr * rexpr

type rdecl = {
  rd_slot : int;
  rd_name : string;
  rd_type : Ctype.t;
  rd_loc : Srcloc.t;
  rd_init : rinit option;
}

and rinit = Rinit_expr of rexpr | Rinit_list of rexpr list

type rstmt =
  | Rsexpr of rexpr
  | Rsdecl of rdecl list
  | Rsblock of rstmt list
  | Rsif of rexpr * rstmt * rstmt option
  | Rswhile of rexpr * rstmt
  | Rsdo of rstmt * rexpr
  | Rsfor of rfor_init * rexpr option * rexpr option * rstmt
  | Rsreturn of rexpr option
  | Rsbreak
  | Rscontinue
  | Rsnull
  | Rsat of int * rstmt
      (** the statement's source position, as an index into [rp_locs];
          the profiler's line attribution hook (blocks and null
          statements are not wrapped) *)

and rfor_init = Rfor_none | Rfor_expr of rexpr | Rfor_decl of rdecl list

type rfunc = {
  rf_name : string;
  rf_params : (int * string * Ctype.t) list;  (** slot, name, type *)
  rf_nparams : int;
  rf_nslots : int;  (** frame size: one slot per parameter and declaration *)
  rf_body : rstmt list;
}

type rglobal = {
  rg_name : string;
  rg_type : Ctype.t;
  rg_loc : Srcloc.t;
  rg_init : rinit option;
}

type t = {
  rp_funcs : rfunc array;
  rp_fn_index : (string, int) Hashtbl.t;
      (** first definition wins, like [Ast.find_function] *)
  rp_globals : rglobal array;  (** in declaration order *)
  rp_global_index : (string, int) Hashtbl.t;
      (** canonical table slot per name; on duplicate declarations the
          last one wins, and the interpreter's set-up re-points it at
          each declaration in turn *)
  rp_locs : Srcloc.t array;
      (** interned statement positions, one per distinct (file, line);
          indexed by {!Rsat} *)
}

val resolve : Ast.program -> t

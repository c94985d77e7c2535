open Cfront

(** Static lockset-based data-race detection over the Stage 1-3 facts:
    every read/write of a Shared variable (including through Stage-3
    may-aliases) from each concurrency context is paired against every
    other; two accesses race when their contexts can overlap, at least
    one is a write, and their {!Lockheld} must-held locksets are
    disjoint.  Reports through {!Diag}, one diagnostic per racy
    variable. *)

type ctx =
  | Creator of string   (** runs [pthread_create]; a single instance *)
  | Thread of string    (** a pthread thread function *)
  | Spmd of string      (** [RCCE_APP]: every core runs it *)

type access = {
  var : Ir.Var_id.t;
  write : bool;
  ctx : ctx;
  multi : bool;             (** the context has concurrent instances *)
  in_func : string;
  loc : Srcloc.t;
  locks : Ir.Var_id.Set.t;  (** must-held at the access *)
  via : Ir.Var_id.t option; (** pointer the access went through *)
}

type race = {
  rvar : Ir.Var_id.t;
  writer : access;
  other : access;
}

type t = {
  accesses : access list;
  races : race list;        (** one per racy variable, sorted *)
}

val run : locksets:(string * Lockheld.t) list -> Pipeline.t -> t
(** [locksets] is the must-hold dataflow solution of every function,
    keyed by name: the session's [locksets] fact of the generation
    [pipeline] describes. *)

val to_diag : race -> Diag.t
val to_diags : t -> Diag.t list

val racy_variables : t -> Ir.Var_id.t list

val access_to_string : access -> string
val ctx_to_string : ctx -> string

(** Recursive-descent parser for the C subset.

    Identifiers registered as type names (by default the pthread/RCCE opaque
    types) start declarations, so [pthread_t threads[3];] parses without a
    full typedef machinery.  All entry points raise {!Srcloc.Error} on
    malformed input. *)

val default_type_names : string list
(** [pthread_t], [pthread_mutex_t], [size_t], [RCCE_FLAG], ... *)

type t

val create : ?type_names:string list -> ?file:string -> string -> t

val parse_program : t -> Ast.program

val program :
  ?type_names:string list -> ?file:string -> string -> Ast.program
(** Parse a complete translation unit from a string, with one
    declaration per file-scope name ({!Scope.merge_globals}) and every
    local named apart ({!Scope.uniquify}). *)

val expression :
  ?type_names:string list -> ?file:string -> string -> Ast.expr
(** Parse a single expression (must consume the whole input). *)

val statement : ?type_names:string list -> ?file:string -> string -> Ast.stmt
(** Parse a single statement (must consume the whole input). *)

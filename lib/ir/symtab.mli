open Cfront

(** Symbol tables for a parsed program.

    Collects every declared variable with its type and declaration site and
    resolves names within a function (locals and parameters shadow
    globals): one binding per name per function, exact once
    {!Cfront.Scope.uniquify} has named locals apart. *)

type entry = {
  id : Var_id.t;
  ty : Ctype.t;
  decl_loc : Srcloc.t;
  initialized : bool;  (** has an initializer at its declaration *)
}

type t

val build : Ast.program -> t
(** @raise Srcloc.Error on a name declared twice in one scope: a global,
    or a parameter or local of one function. *)

val program : t -> Ast.program

val all : t -> entry list
(** Every variable in the program, globals first. *)

val find : t -> Var_id.t -> entry option

val type_of : t -> Var_id.t -> Ctype.t option

val resolve : t -> ?func:string -> string -> entry option
(** Resolve a source name as seen from inside [func] (innermost wins) or at
    global scope when [func] is omitted. *)

val resolve_id : t -> ?func:string -> string -> Var_id.t option

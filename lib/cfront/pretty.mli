(** AST -> C source.

    Emits minimally-parenthesized code by comparing operator precedences,
    so parse -> print -> parse is the identity on the subset. *)

val expr : Ast.expr -> string

val stmt : Ast.stmt -> string
(** One statement, newline-terminated, 4-space indentation. *)

val func : Ast.func -> string

val program : Ast.program -> string
(** Whole translation unit, including the recorded [#include] lines. *)

(** Structural AST well-formedness checking.

    The in-memory replacement for the old print-then-reparse consistency
    hack: one {!Scope.walk} that checks every identifier is scope-closed
    (bound to a parameter or local in scope, a global, a function, a
    prototype or an ambient symbol), that each function's names are kept
    apart (nothing {!Scope.uniquify} would rename, so one binding per
    name per function is exact), that no file-scope variable is declared
    twice (so [Ir.Symtab.build] accepts the program), and that no node
    of a forbidden family
    — declaration, [Named] type, call or variable — survives a removal
    pass.  (Include lines are verbatim pass-through text, not AST nodes,
    and are not checked.) *)

val check : ?forbid:string list -> Ast.program -> (unit, string) result
(** [check ~forbid program] walks the whole program, one pass per
    function, then the file-scope variables.  A duplicate declaration
    is an error too: ["duplicate declaration of x"] for a second
    file-scope [x], located at it.  [forbid] is a list
    of name prefixes (e.g. ["pthread"]) that must not appear in any
    declaration, type, call or variable once the corresponding removal
    pass has run.  The first violation is returned as
    ["file:line:col: message"]. *)

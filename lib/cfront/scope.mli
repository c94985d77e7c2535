(** C's block scoping, the only code that knows it.

    One walk over a function binds every identifier by C's rule: a
    parameter covers the body; a declarator is visible from its own
    position (its own initializer and the declarators after it
    included) to the end of its block; a [for] declaration covers its
    loop; [if], [while], [do] and [for] bodies are scopes of their own.
    A second declaration in one block, or a local that redeclares a
    parameter in the body's outermost block, is a located
    ["duplicate declaration of a@f"], as gcc rejects it.

    At file scope, a function or prototype is visible everywhere, and a
    variable from its declaration on (its own initializer included).
    An identifier that nothing visible binds, other than the
    environment's [NULL], [RCCE_FLAG_SET], [RCCE_FLAG_UNSET] and
    [RCCE_COMM_WORLD], is a located ["identifier 'x' is not declared in
    this scope"], as gcc rejects it.

    {!uniquify} names every local apart, so that one binding per name
    per function, which [Ir.Symtab] and through it every analysis and
    pass assume, is exact.  {!merge_globals} makes one declaration of
    each file-scope name.  [Parser.program] applies both. *)

val ambient : (string * int option) list
(** The names the environment defines, with the integer each denotes
    when evaluated: [NULL] and [RCCE_FLAG_UNSET] 0, [RCCE_FLAG_SET] 1;
    [RCCE_COMM_WORLD] ([None]) only names a communicator in a builtin's
    argument and has no value. *)

val walk :
  ?decl:(Ast.decl -> unit) ->
  ?use:(Srcloc.t -> string -> unit) ->
  ?node:(Srcloc.t -> Ast.expr -> unit) ->
  Ast.program -> unit
(** Walk every global initializer and function in order, calling [decl]
    on each local declaration once it is in scope, [use loc name] on
    each identifier before it is checked, and [node] on each expression
    node before its children; [loc] is the enclosing statement's or
    declaration's position.
    @raise Srcloc.Error on an undeclared identifier, a duplicate
    declaration, or a function whose names are not kept apart: one with
    a parameter or local that {!uniquify} would rename. *)

val decls : Ast.func -> Ast.decl list
(** A function's local declarations, in the walk's order. *)

val uniquify : Ast.program -> Ast.program
(** Rename each parameter or local whose name is already taken in its
    function — by a global or a function, wherever the program declares
    it, or by an earlier parameter or local — to [name__k], the first
    such name its function does not take, with every use it binds.  A
    program that shadows nothing comes back physically unchanged ([==]).
    @raise Srcloc.Error on an undeclared identifier or a duplicate
    declaration. *)

val merge_globals : Ast.program -> Ast.program
(** C's rule for a file-scope name declared more than once
    ([int x; int x;], or a tentative [int x;] before [int x = 3;]): the
    declarations, of one type, are one object, with the one initializer
    among them.  It takes the place of the first declaration, or of the
    one with the initializer when that names a variable declared after
    the first ([int *p; int y; int *p = &y;]).  A program that repeats
    no name comes back physically unchanged ([==]).
    @raise Srcloc.Error at a repeat that gives a second initializer
    (["redefinition of x"]) or another type (["conflicting types for
    x"]). *)

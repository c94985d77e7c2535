(** Generic traversals and rewriters over the AST. *)

(** {1 Expressions} *)

val iter_expr : (Ast.expr -> unit) -> Ast.expr -> unit
(** Pre-order visit of an expression and all its subexpressions. *)

val fold_expr : ('a -> Ast.expr -> 'a) -> 'a -> Ast.expr -> 'a

val map_expr : (Ast.expr -> Ast.expr) -> Ast.expr -> Ast.expr
(** Bottom-up rewriting: [f] sees each node after its children were
    rewritten. *)

(** {1 Statements} *)

val exprs_of_decl : Ast.decl -> Ast.expr list
(** Initializer expressions of a declaration. *)

val shallow_exprs : Ast.stmt -> Ast.expr list
(** Expressions syntactically at this node, not inside nested statements. *)

val iter_stmt : (Ast.stmt -> unit) -> Ast.stmt -> unit
(** Pre-order visit of a statement and all nested statements. *)

val iter_exprs_of_stmt : (Ast.expr -> unit) -> Ast.stmt -> unit

val expr_stmts : Ast.func -> (Ast.expr * Ast.stmt) list
(** Each {!shallow_exprs} expression of the function paired with its
    statement, for [List.assq]: a CFG node shares its expressions with
    the AST, so this finds the statement (and location) of a condition
    node. *)

val iter_exprs_of_program : (Ast.expr -> unit) -> Ast.program -> unit
(** Visit every expression (including global initializers). *)

val calls_in_func : Ast.func -> (string * Ast.expr list * Ast.stmt) list
(** All direct calls [(callee, args, enclosing statement)], in source
    order. *)

(** {1 Statement rewriting} *)

val rewrite_program :
  (Ast.stmt -> Ast.stmt list option) -> Ast.program -> Ast.program
(** [rewrite_program f p] rebuilds every function body bottom-up.  [f]
    receives each statement after its children were rewritten and returns
    [Some replacements] ([[]] removes the statement) or [None] to keep it.
    Replacements inside a loop/if body are wrapped in a block when needed. *)

val rewrite_stmts_topdown :
  (Ast.stmt -> Ast.stmt list option) -> Ast.stmt list -> Ast.stmt list
(** Top-down variant: [f] sees each statement before its children; a [Some]
    replacement is final, [None] recurses into the children. *)

val rewrite_program_topdown :
  (Ast.stmt -> Ast.stmt list option) -> Ast.program -> Ast.program

val map_stmt_exprs : (Ast.expr -> Ast.expr) -> Ast.stmt -> Ast.stmt
(** Rewrite every expression of one statement tree bottom-up, including
    declaration initializers. *)

val map_func_exprs : (Ast.expr -> Ast.expr) -> Ast.func -> Ast.func

val map_program_exprs :
  (Ast.expr -> Ast.expr) -> Ast.program -> Ast.program
(** Rewrite every expression of the program bottom-up, including global and
    local initializers. *)

(** Abstract syntax of the C subset. *)

type unop =
  | Neg | Not | Bnot | Deref | Addr
  | Preinc | Predec | Postinc | Postdec

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Gt | Le | Ge
  | Land | Lor
  | Band | Bor | Bxor | Shl | Shr

type expr =
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Char_lit of char
  | Var of string
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Assign of binop option * expr * expr
      (** [lhs op= rhs]; [None] is plain [=] *)
  | Cond of expr * expr * expr
  | Call of string * expr list
  | Index of expr * expr
  | Cast of Ctype.t * expr
  | Sizeof_type of Ctype.t
  | Sizeof_expr of expr
  | Comma of expr * expr

type init =
  | Init_expr of expr
  | Init_list of expr list

type decl = {
  d_name : string;
  d_type : Ctype.t;
  d_init : init option;
  d_static : bool;
  d_loc : Srcloc.t;
}

type stmt = { s_desc : stmt_desc; s_loc : Srcloc.t }

and stmt_desc =
  | Sexpr of expr
  | Sdecl of decl list
  | Sblock of stmt list
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sdo of stmt * expr
  | Sfor of for_init * expr option * expr option * stmt
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Snull

and for_init =
  | For_none
  | For_expr of expr
  | For_decl of decl list

type func = {
  f_name : string;
  f_ret : Ctype.t;
  f_params : (string * Ctype.t) list;
  f_body : stmt list;
  f_loc : Srcloc.t;
}

type global =
  | Gvar of decl
  | Gfunc of func
  | Gproto of string * Ctype.t * Srcloc.t

type program = { p_includes : string list; p_globals : global list }

(** {1 Constructors} *)

val stmt : ?loc:Srcloc.t -> stmt_desc -> stmt

val decl :
  ?loc:Srcloc.t -> ?static:bool -> ?init:init -> string -> Ctype.t -> decl

val func :
  ?loc:Srcloc.t ->
  string ->
  ret:Ctype.t ->
  params:(string * Ctype.t) list ->
  stmt list ->
  func

val call : string -> expr list -> expr
val var : string -> expr
val int : int -> expr
val assign : expr -> expr -> expr

(** {1 Accessors} *)

val functions : program -> func list
val global_decls : program -> decl list
val find_function : program -> string -> func option

val entry_name : program -> string
(** The entry point: ["RCCE_APP"] when the program defines it (the shape
    a translation has), else ["main"]. *)

val unop_to_string : unop -> string
val binop_to_string : binop -> string

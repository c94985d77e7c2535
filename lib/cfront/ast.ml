(* Abstract syntax of the C subset.  Statements carry source locations for
   diagnostics; expressions are kept location-free to keep pattern matches
   in the analyses light. *)

type unop =
  | Neg                          (* -e *)
  | Not                          (* !e *)
  | Bnot                         (* ~e *)
  | Deref                        (* *e *)
  | Addr                         (* &e *)
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
  | Assign of binop option * expr * expr   (* [lhs op= rhs]; [None] is [=] *)
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
  | Sdecl of decl list                    (* one line: [int a = 0, b;] *)
  | Sblock of stmt list
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sdo of stmt * expr
  | Sfor of for_init * expr option * expr option * stmt
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Snull                                 (* empty statement [;] *)

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
  | Gproto of string * Ctype.t * Srcloc.t  (* declaration-only prototype *)

type program = { p_includes : string list; p_globals : global list }

(* --- constructors ------------------------------------------------------ *)

let stmt ?(loc = Srcloc.dummy) s_desc = { s_desc; s_loc = loc }

let decl ?(loc = Srcloc.dummy) ?(static = false) ?init name ty =
  { d_name = name; d_type = ty; d_init = init; d_static = static; d_loc = loc }

let func ?(loc = Srcloc.dummy) name ~ret ~params body =
  { f_name = name; f_ret = ret; f_params = params; f_body = body; f_loc = loc }

let call name args = Call (name, args)

let var name = Var name

let int n = Int_lit n

let assign lhs rhs = Assign (None, lhs, rhs)

(* --- accessors --------------------------------------------------------- *)

let functions prog =
  List.filter_map
    (function Gfunc f -> Some f | Gvar _ | Gproto _ -> None)
    prog.p_globals

let global_decls prog =
  List.filter_map
    (function Gvar d -> Some d | Gfunc _ | Gproto _ -> None)
    prog.p_globals

let find_function prog name =
  List.find_opt (fun f -> String.equal f.f_name name) (functions prog)

let entry_name prog =
  if find_function prog "RCCE_APP" <> None then "RCCE_APP" else "main"

let unop_to_string = function
  | Neg -> "-" | Not -> "!" | Bnot -> "~" | Deref -> "*" | Addr -> "&"
  | Preinc | Postinc -> "++"
  | Predec | Postdec -> "--"

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Gt -> ">" | Le -> "<=" | Ge -> ">="
  | Land -> "&&" | Lor -> "||"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"

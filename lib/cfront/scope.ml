(* C's block scoping, the only code that knows it (see scope.mli).

   The walk keeps the binders in scope on a list, innermost first, each
   with its name in the output; leaving a block restores the list it
   entered with.  Functions are small, so a lookup scans the list.  Until
   a binder of the function is renamed the walk rebuilds nothing, and it
   allocates nothing per identifier. *)

(* One walk: its hooks (see scope.mli), the program's file-scope names,
   those a use can see so far, and whether a binder whose name is taken
   is renamed or rejected.  For the current function: [taken], the names
   and output names of its binders so far; [scope], the binders in scope
   with their output names, innermost first; [block], [scope] as the
   current block began; [renamed], whether a binder was renamed. *)
type t = {
  decl : Ast.decl -> unit;
  use : Srcloc.t -> string -> unit;
  node : Srcloc.t -> Ast.expr -> unit;
  globals : (string, unit) Hashtbl.t;
  visible : (string, unit) Hashtbl.t;
      (* every function and prototype; a file-scope variable from its
         first declaration on *)
  uses : bool;  (* whether to walk expressions *)
  rename : bool;
  mutable fname : string;
  mutable taken : string list;
  mutable renamed : bool;
  mutable scope : (string * string) list;
  mutable block : (string * string) list;
  mutable loc : Srcloc.t;
  mutable visit : Ast.expr -> unit;
}

(* Symbols that the C subset treats as defined by the environment:
   [NULL] from the headers, and the RCCE runtime's flag values and
   exported globals. *)
let ambient = [ "NULL"; "RCCE_FLAG_SET"; "RCCE_FLAG_UNSET"; "RCCE_COMM_WORLD" ]

let rec mem name = function
  | [] -> false
  | n :: rest -> String.equal n name || mem name rest

let rec bound name = function
  | [] -> false
  | (n, _) :: rest -> String.equal n name || bound name rest

let create ?(decl = ignore) ?(use = fun _ _ -> ()) ?(node = fun _ _ -> ())
    ?(uses = true) ?(rename = false) (program : Ast.program) =
  let globals = Hashtbl.create 32 and visible = Hashtbl.create 32 in
  List.iter
    (fun g ->
      match g with
      | Ast.Gvar d -> Hashtbl.replace globals d.Ast.d_name ()
      | Ast.Gfunc { Ast.f_name = name; _ } | Ast.Gproto (name, _, _) ->
          Hashtbl.replace globals name ();
          Hashtbl.replace visible name ())
    program.Ast.p_globals;
  let w =
    { decl; use; node; globals; visible; uses; rename; fname = "";
      taken = []; renamed = false; scope = []; block = [];
      loc = Srcloc.dummy; visit = ignore }
  in
  w.visit <-
    (fun e ->
      node w.loc e;
      match e with
      | Ast.Var name ->
          use w.loc name;
          if not (bound name w.scope || Hashtbl.mem visible name
                  || mem name ambient)
          then
            Srcloc.error w.loc "identifier '%s' is not declared in this scope"
              name
      | _ -> ());
  w

(* A name is taken in the function when a global or an earlier binder
   has it. *)
let taken w name = Hashtbl.mem w.globals name || mem name w.taken

let rec fresh w name k =
  let c = Printf.sprintf "%s__%d" name k in
  if taken w c then fresh w name (k + 1) else c

let not_apart loc name fname =
  Srcloc.error loc "%s@%s is not named apart from another binding or use"
    name fname

(* Whether a binder in [l] above the current block's start is [name]. *)
let rec in_block w name l =
  l != w.block
  && match l with
     | (n, _) :: rest -> String.equal n name || in_block w name rest
     | [] -> false

(* Bring a binder into scope; its name in the output: its own unless
   taken, else [name__k] for the first k that leaves it untaken. *)
let bind w loc name =
  if in_block w name w.scope then
    Srcloc.error loc "duplicate declaration of %s@%s" name w.fname;
  let out =
    if not (taken w name) then name
    else if w.rename then fresh w name 1
    else not_apart loc name w.fname
  in
  w.renamed <- w.renamed || out != name;
  w.taken <- out :: name :: w.taken;
  w.scope <- (name, out) :: w.scope;
  out

(* One expression: report its uses, and rename them once a binder of the
   function has been renamed. *)
let expr w loc e =
  w.loc <- loc;
  if w.uses then Visit.iter_expr w.visit e;
  if not w.renamed then e
  else
    Visit.map_expr
      (function
        | Ast.Var name as e -> (
            match List.assoc_opt name w.scope with
            | Some out -> Ast.Var out
            | None -> e)
        | e -> e)
      e

let expr_opt w loc = function None -> None | Some e -> Some (expr w loc e)

(* A declarator is in scope from its own position: its initializer and
   the declarators after it see it. *)
let rec declarators w ds =
  match ds with
  | [] -> ds
  | (d : Ast.decl) :: rest ->
      let name = bind w d.Ast.d_loc d.Ast.d_name in
      w.decl d;
      let init =
        match d.Ast.d_init with
        | None -> None
        | Some (Ast.Init_expr e) -> Some (Ast.Init_expr (expr w d.Ast.d_loc e))
        | Some (Ast.Init_list es) ->
            Some (Ast.Init_list (List.map (expr w d.Ast.d_loc) es))
      in
      let rest' = declarators w rest in
      if w.renamed then { d with Ast.d_name = name; d_init = init } :: rest'
      else ds

let rebuild w (s : Ast.stmt) desc =
  if w.renamed then { s with Ast.s_desc = desc } else s

let rec stmt w (s : Ast.stmt) =
  let loc = s.Ast.s_loc in
  match s.Ast.s_desc with
  | Ast.Sexpr e -> rebuild w s (Ast.Sexpr (expr w loc e))
  | Ast.Sdecl ds -> rebuild w s (Ast.Sdecl (declarators w ds))
  | Ast.Sblock ss ->
      let scope = w.scope and block = w.block in
      w.block <- scope;
      let ss = stmts w ss in
      w.scope <- scope;
      w.block <- block;
      rebuild w s (Ast.Sblock ss)
  | Ast.Sif (c, a, b) ->
      let c = expr w loc c in
      let a = child w a in
      let b = match b with None -> b | Some b -> Some (child w b) in
      rebuild w s (Ast.Sif (c, a, b))
  | Ast.Swhile (c, body) ->
      let c = expr w loc c in
      rebuild w s (Ast.Swhile (c, child w body))
  | Ast.Sdo (body, c) ->
      let body = child w body in
      rebuild w s (Ast.Sdo (body, expr w loc c))
  | Ast.Sfor (init, c, step, body) ->
      (* the loop's declarations cover the loop; its body is a scope
         within *)
      let scope = w.scope and block = w.block in
      w.block <- scope;
      let init =
        match init with
        | Ast.For_none -> init
        | Ast.For_expr e -> Ast.For_expr (expr w loc e)
        | Ast.For_decl ds -> Ast.For_decl (declarators w ds)
      in
      let c = expr_opt w loc c in
      let step = expr_opt w loc step in
      let body = child w body in
      w.scope <- scope;
      w.block <- block;
      rebuild w s (Ast.Sfor (init, c, step, body))
  | Ast.Sreturn e -> rebuild w s (Ast.Sreturn (expr_opt w loc e))
  | Ast.Sbreak | Ast.Scontinue | Ast.Snull -> s

(* An [if], [while], [do] or [for] body: a scope of its own. *)
and child w s =
  let scope = w.scope and block = w.block in
  w.block <- scope;
  let s = stmt w s in
  w.scope <- scope;
  w.block <- block;
  s

and stmts w ss =
  match ss with
  | [] -> ss
  | s :: rest ->
      let s' = stmt w s in
      let rest' = stmts w rest in
      if w.renamed then s' :: rest' else ss

(* One function.  The parameters and the body's outermost declarations
   share a block. *)
let func w (fn : Ast.func) =
  w.fname <- fn.Ast.f_name;
  w.taken <- [];
  w.renamed <- false;
  w.scope <- [];
  w.block <- [];
  let params =
    List.map (fun (p, ty) -> (bind w fn.Ast.f_loc p, ty)) fn.Ast.f_params
  in
  let body = stmts w fn.Ast.f_body in
  w.scope <- [];
  if w.renamed then { fn with Ast.f_params = params; f_body = body } else fn

(* Every global initializer and function in order; the program with each
   function as [func] returns it.  A file-scope variable is visible from
   its declaration on, its own initializer included. *)
let program w (p : Ast.program) =
  let global g =
    match g with
    | Ast.Gvar d ->
        Hashtbl.replace w.visible d.Ast.d_name ();
        List.iter
          (fun e -> ignore (expr w d.Ast.d_loc e))
          (Visit.exprs_of_decl d);
        g
    | Ast.Gfunc fn ->
        let fn' = func w fn in
        if fn' == fn then g else Ast.Gfunc fn'
    | Ast.Gproto _ -> g
  in
  let globals = List.map global p.Ast.p_globals in
  if List.for_all2 ( == ) globals p.Ast.p_globals then p
  else { p with Ast.p_globals = globals }

let walk ?decl ?use ?node p = ignore (program (create ?decl ?use ?node p) p)

let decls fn =
  let acc = ref [] in
  let decl d = acc := d :: !acc in
  let no_globals = { Ast.p_includes = []; p_globals = [] } in
  ignore (func (create ~decl ~uses:false ~rename:true no_globals) fn);
  List.rev !acc

let uniquify p = program (create ~rename:true p) p

(* One declaration per file-scope name, with the one initializer among
   its repeats.  It sits where the first declaration was, unless its
   initializer names a variable declared after that: then where the
   initializer was, so that the variable is set up first. *)
let merge_globals (p : Ast.program) =
  (* per name: the declaration as merged so far, and the positions of
     its first declaration and of the one with the initializer *)
  let merged = Hashtbl.create 32 in
  let repeats = ref false in
  List.iteri
    (fun i g ->
      match g with
      | Ast.Gvar d -> (
          match Hashtbl.find_opt merged d.Ast.d_name with
          | None -> Hashtbl.replace merged d.Ast.d_name (d, i, i)
          | Some ((first : Ast.decl), at, _) ->
              if not (Ctype.equal first.Ast.d_type d.Ast.d_type) then
                Srcloc.error d.Ast.d_loc "conflicting types for %s"
                  d.Ast.d_name;
              repeats := true;
              if d.Ast.d_init <> None then begin
                if first.Ast.d_init <> None then
                  Srcloc.error d.Ast.d_loc "redefinition of %s" d.Ast.d_name;
                Hashtbl.replace merged d.Ast.d_name
                  ({ first with Ast.d_init = d.Ast.d_init }, at, i)
              end)
      | Ast.Gfunc _ | Ast.Gproto _ -> ())
    p.Ast.p_globals;
  if not !repeats then p
  else
    let position (d, at, init_at) =
      let later = ref false in
      List.iter
        (Visit.iter_expr (function
          | Ast.Var n -> (
              match Hashtbl.find_opt merged n with
              | Some (_, first, _) when first > at -> later := true
              | _ -> ())
          | _ -> ()))
        (Visit.exprs_of_decl d);
      if !later then init_at else at
    in
    let place i = function
      | Ast.Gvar d ->
          let ((m, _, _) as entry) = Hashtbl.find merged d.Ast.d_name in
          if position entry = i then Some (Ast.Gvar m) else None
      | g -> Some g
    in
    { p with
      Ast.p_globals = List.filter_map Fun.id (List.mapi place p.Ast.p_globals)
    }

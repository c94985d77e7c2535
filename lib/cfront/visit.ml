(* Generic traversals over the AST.  The statement rewriter [rewrite_stmts]
   maps each statement to a *list* of replacements (empty list = removal),
   which is the shape every translation pass needs. *)

(* --- expressions -------------------------------------------------------- *)

let rec iter_expr f e =
  f e;
  match e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
  | Ast.Var _ | Ast.Sizeof_type _ -> ()
  | Ast.Unary (_, a) | Ast.Cast (_, a) | Ast.Sizeof_expr a -> iter_expr f a
  | Ast.Binary (_, a, b) | Ast.Assign (_, a, b) | Ast.Index (a, b)
  | Ast.Comma (a, b) ->
      iter_expr f a;
      iter_expr f b
  | Ast.Cond (a, b, c) ->
      iter_expr f a;
      iter_expr f b;
      iter_expr f c
  | Ast.Call (_, args) -> List.iter (iter_expr f) args

let fold_expr f acc e =
  let acc = ref acc in
  iter_expr (fun e -> acc := f !acc e) e;
  !acc

(* Bottom-up expression rewriting. *)
let rec map_expr f e =
  let e' =
    match e with
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
    | Ast.Var _ | Ast.Sizeof_type _ -> e
    | Ast.Unary (op, a) -> Ast.Unary (op, map_expr f a)
    | Ast.Cast (ty, a) -> Ast.Cast (ty, map_expr f a)
    | Ast.Sizeof_expr a -> Ast.Sizeof_expr (map_expr f a)
    | Ast.Binary (op, a, b) -> Ast.Binary (op, map_expr f a, map_expr f b)
    | Ast.Assign (op, a, b) -> Ast.Assign (op, map_expr f a, map_expr f b)
    | Ast.Index (a, b) -> Ast.Index (map_expr f a, map_expr f b)
    | Ast.Comma (a, b) -> Ast.Comma (map_expr f a, map_expr f b)
    | Ast.Cond (a, b, c) ->
        Ast.Cond (map_expr f a, map_expr f b, map_expr f c)
    | Ast.Call (name, args) -> Ast.Call (name, List.map (map_expr f) args)
  in
  f e'

(* --- statements --------------------------------------------------------- *)

let exprs_of_decl (d : Ast.decl) =
  match d.Ast.d_init with
  | None -> []
  | Some (Ast.Init_expr e) -> [ e ]
  | Some (Ast.Init_list es) -> es

(* Expressions syntactically at this statement node (not inside nested
   statements). *)
let shallow_exprs (s : Ast.stmt) =
  match s.Ast.s_desc with
  | Ast.Sexpr e -> [ e ]
  | Ast.Sdecl ds -> List.concat_map exprs_of_decl ds
  | Ast.Sif (c, _, _) | Ast.Swhile (c, _) | Ast.Sdo (_, c) -> [ c ]
  | Ast.Sfor (init, cond, step, _) ->
      let of_init =
        match init with
        | Ast.For_none -> []
        | Ast.For_expr e -> [ e ]
        | Ast.For_decl ds -> List.concat_map exprs_of_decl ds
      in
      of_init
      @ (match cond with None -> [] | Some e -> [ e ])
      @ (match step with None -> [] | Some e -> [ e ])
  | Ast.Sreturn (Some e) -> [ e ]
  | Ast.Sreturn None | Ast.Sblock _ | Ast.Sbreak | Ast.Scontinue
  | Ast.Snull -> []

let rec iter_stmt f (s : Ast.stmt) =
  f s;
  match s.Ast.s_desc with
  | Ast.Sblock stmts -> List.iter (iter_stmt f) stmts
  | Ast.Sif (_, a, b) ->
      iter_stmt f a;
      Option.iter (iter_stmt f) b
  | Ast.Swhile (_, body) | Ast.Sdo (body, _) | Ast.Sfor (_, _, _, body) ->
      iter_stmt f body
  | Ast.Sexpr _ | Ast.Sdecl _ | Ast.Sreturn _ | Ast.Sbreak | Ast.Scontinue
  | Ast.Snull -> ()

let iter_exprs_of_stmt f s =
  iter_stmt (fun s -> List.iter (iter_expr f) (shallow_exprs s)) s

let iter_exprs_of_func f (fn : Ast.func) =
  List.iter (iter_exprs_of_stmt f) fn.Ast.f_body

(* Later statements first; [List.assq] finds the statement of an
   expression a CFG node shares with the AST. *)
let expr_stmts (fn : Ast.func) =
  let tbl = ref [] in
  List.iter
    (iter_stmt (fun s ->
         List.iter (fun e -> tbl := (e, s) :: !tbl) (shallow_exprs s)))
    fn.Ast.f_body;
  !tbl

let iter_exprs_of_program f (p : Ast.program) =
  List.iter
    (fun g ->
      match g with
      | Ast.Gvar d -> List.iter (iter_expr f) (exprs_of_decl d)
      | Ast.Gfunc fn -> iter_exprs_of_func f fn
      | Ast.Gproto _ -> ())
    p.Ast.p_globals

(* All direct calls [(callee, args, enclosing statement)] in a function. *)
let calls_in_func (fn : Ast.func) =
  let acc = ref [] in
  List.iter
    (fun s ->
      iter_stmt
        (fun s ->
          List.iter
            (iter_expr (fun e ->
                 match e with
                 | Ast.Call (name, args) -> acc := (name, args, s) :: !acc
                 | _ -> ()))
            (shallow_exprs s))
        s)
    fn.Ast.f_body;
  List.rev !acc

(* --- statement rewriting ------------------------------------------------ *)

(* [rewrite_stmts f stmts] rebuilds a statement list.  [f] receives each
   statement *after* its children have been rewritten and returns its
   replacement list; [None] keeps the statement unchanged. *)
let rec rewrite_stmts f stmts = List.concat_map (rewrite_stmt f) stmts

and rewrite_stmt f (s : Ast.stmt) =
  let rebuilt =
    match s.Ast.s_desc with
    | Ast.Sblock stmts ->
        { s with Ast.s_desc = Ast.Sblock (rewrite_stmts f stmts) }
    | Ast.Sif (c, a, b) ->
        let a = rewrap f a in
        let b = Option.map (rewrap f) b in
        { s with Ast.s_desc = Ast.Sif (c, a, b) }
    | Ast.Swhile (c, body) ->
        { s with Ast.s_desc = Ast.Swhile (c, rewrap f body) }
    | Ast.Sdo (body, c) ->
        { s with Ast.s_desc = Ast.Sdo (rewrap f body, c) }
    | Ast.Sfor (init, c, step, body) ->
        { s with Ast.s_desc = Ast.Sfor (init, c, step, rewrap f body) }
    | Ast.Sexpr _ | Ast.Sdecl _ | Ast.Sreturn _ | Ast.Sbreak
    | Ast.Scontinue | Ast.Snull -> s
  in
  match f rebuilt with None -> [ rebuilt ] | Some replacement -> replacement

(* A loop/if body must stay a single statement: multi-statement
   replacements are wrapped in a block. *)
and rewrap f s =
  match rewrite_stmt f s with
  | [ single ] -> single
  | stmts -> Ast.stmt ~loc:s.Ast.s_loc (Ast.Sblock stmts)

(* Top-down variant: [f] sees each statement before its children; a [Some]
   replacement is final (children of the replacement are not revisited),
   [None] recurses into the children. *)
let rec rewrite_stmts_topdown f stmts =
  List.concat_map (rewrite_stmt_topdown f) stmts

and rewrite_stmt_topdown f (s : Ast.stmt) =
  match f s with
  | Some replacement -> replacement
  | None -> begin
      match s.Ast.s_desc with
      | Ast.Sblock stmts ->
          [ { s with Ast.s_desc = Ast.Sblock (rewrite_stmts_topdown f stmts) } ]
      | Ast.Sif (c, a, b) ->
          let a = rewrap_topdown f a in
          let b = Option.map (rewrap_topdown f) b in
          [ { s with Ast.s_desc = Ast.Sif (c, a, b) } ]
      | Ast.Swhile (c, body) ->
          [ { s with Ast.s_desc = Ast.Swhile (c, rewrap_topdown f body) } ]
      | Ast.Sdo (body, c) ->
          [ { s with Ast.s_desc = Ast.Sdo (rewrap_topdown f body, c) } ]
      | Ast.Sfor (init, c, step, body) ->
          [ { s with
              Ast.s_desc = Ast.Sfor (init, c, step, rewrap_topdown f body) } ]
      | Ast.Sexpr _ | Ast.Sdecl _ | Ast.Sreturn _ | Ast.Sbreak
      | Ast.Scontinue | Ast.Snull -> [ s ]
    end

and rewrap_topdown f s =
  match rewrite_stmt_topdown f s with
  | [ single ] -> single
  | stmts -> Ast.stmt ~loc:s.Ast.s_loc (Ast.Sblock stmts)

let rewrite_func f (fn : Ast.func) =
  { fn with Ast.f_body = rewrite_stmts f fn.Ast.f_body }

let rewrite_program f (p : Ast.program) =
  let globals =
    List.map
      (fun g ->
        match g with
        | Ast.Gfunc fn -> Ast.Gfunc (rewrite_func f fn)
        | Ast.Gvar _ | Ast.Gproto _ -> g)
      p.Ast.p_globals
  in
  { p with Ast.p_globals = globals }

let rewrite_func_topdown f (fn : Ast.func) =
  { fn with Ast.f_body = rewrite_stmts_topdown f fn.Ast.f_body }

let rewrite_program_topdown f (p : Ast.program) =
  let globals =
    List.map
      (fun g ->
        match g with
        | Ast.Gfunc fn -> Ast.Gfunc (rewrite_func_topdown f fn)
        | Ast.Gvar _ | Ast.Gproto _ -> g)
      p.Ast.p_globals
  in
  { p with Ast.p_globals = globals }

(* Rewrite every expression of one statement tree (bottom-up). *)
let map_stmt_exprs f s =
  let map_init = function
    | Ast.Init_expr e -> Ast.Init_expr (map_expr f e)
    | Ast.Init_list es -> Ast.Init_list (List.map (map_expr f) es)
  in
  let map_decl d = { d with Ast.d_init = Option.map map_init d.Ast.d_init } in
  let rec map_stmt (s : Ast.stmt) =
    let desc =
      match s.Ast.s_desc with
      | Ast.Sexpr e -> Ast.Sexpr (map_expr f e)
      | Ast.Sdecl ds -> Ast.Sdecl (List.map map_decl ds)
      | Ast.Sblock stmts -> Ast.Sblock (List.map map_stmt stmts)
      | Ast.Sif (c, a, b) ->
          Ast.Sif (map_expr f c, map_stmt a, Option.map map_stmt b)
      | Ast.Swhile (c, body) -> Ast.Swhile (map_expr f c, map_stmt body)
      | Ast.Sdo (body, c) -> Ast.Sdo (map_stmt body, map_expr f c)
      | Ast.Sfor (init, c, step, body) ->
          let init =
            match init with
            | Ast.For_none -> Ast.For_none
            | Ast.For_expr e -> Ast.For_expr (map_expr f e)
            | Ast.For_decl ds -> Ast.For_decl (List.map map_decl ds)
          in
          Ast.Sfor
            (init, Option.map (map_expr f) c, Option.map (map_expr f) step,
             map_stmt body)
      | Ast.Sreturn e -> Ast.Sreturn (Option.map (map_expr f) e)
      | Ast.Sbreak | Ast.Scontinue | Ast.Snull -> s.Ast.s_desc
    in
    { s with Ast.s_desc = desc }
  in
  map_stmt s

let map_func_exprs f (fn : Ast.func) =
  { fn with Ast.f_body = List.map (map_stmt_exprs f) fn.Ast.f_body }

(* Rewrite every expression of the program in place (bottom-up). *)
let map_program_exprs f (p : Ast.program) =
  let map_init = function
    | Ast.Init_expr e -> Ast.Init_expr (map_expr f e)
    | Ast.Init_list es -> Ast.Init_list (List.map (map_expr f) es)
  in
  let map_decl d = { d with Ast.d_init = Option.map map_init d.Ast.d_init } in
  let globals =
    List.map
      (fun g ->
        match g with
        | Ast.Gvar d -> Ast.Gvar (map_decl d)
        | Ast.Gfunc fn -> Ast.Gfunc (map_func_exprs f fn)
        | Ast.Gproto _ -> g)
      p.Ast.p_globals
  in
  { p with Ast.p_globals = globals }

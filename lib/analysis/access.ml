open Cfront

(* Read/write classification of variable occurrences, shared by Stage 1
   (static occurrence counts) and Stage 4's dynamic access estimation.

   Conventions:
   - plain assignment writes its l-value base; compound assignment and
     ++/-- both read and write it;
   - indices of an l-value array are reads;
   - taking an address [&x] is a read of [x];
   - dereferencing [*p] reads [p]; a write through [*p] is only a read of
     [p] here (the points-to stage resolves what it may write);
   - a declaration with an initializer is a write of the declared variable;
   - call arguments are reads. *)

type kind = Read | Write

type sink = kind -> Ir.Var_id.t -> unit

let rec visit resolve (f : sink) e =
  match e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
  | Ast.Sizeof_type _ -> ()
  | Ast.Var name -> Option.iter (f Read) (resolve name)
  | Ast.Unary ((Ast.Preinc | Ast.Predec | Ast.Postinc | Ast.Postdec), lhs) ->
      visit_lvalue resolve f ~also_read:true lhs
  | Ast.Unary ((Ast.Addr | Ast.Neg | Ast.Not | Ast.Bnot | Ast.Deref), e) ->
      visit resolve f e
  | Ast.Binary (_, a, b) | Ast.Comma (a, b) ->
      visit resolve f a;
      visit resolve f b
  | Ast.Assign (op, lhs, rhs) ->
      visit_lvalue resolve f ~also_read:(op <> None) lhs;
      visit resolve f rhs
  | Ast.Cond (a, b, c) ->
      visit resolve f a;
      visit resolve f b;
      visit resolve f c
  | Ast.Call (_, args) -> List.iter (visit resolve f) args
  | Ast.Index (arr, idx) ->
      visit resolve f arr;
      visit resolve f idx
  | Ast.Cast (_, e) | Ast.Sizeof_expr e -> visit resolve f e

and visit_lvalue resolve f ~also_read e =
  match e with
  | Ast.Var name ->
      Option.iter
        (fun id ->
          f Write id;
          if also_read then f Read id)
        (resolve name)
  | Ast.Index (arr, idx) ->
      visit resolve f idx;
      visit_lvalue resolve f ~also_read arr
  | Ast.Unary (Ast.Deref, p) -> visit resolve f p
  | Ast.Cast (_, e) -> visit_lvalue resolve f ~also_read e
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
  | Ast.Unary _ | Ast.Binary _ | Ast.Assign _ | Ast.Cond _ | Ast.Call _
  | Ast.Sizeof_type _ | Ast.Sizeof_expr _ | Ast.Comma _ ->
      visit resolve f e

let visit_decl resolve f (d : Ast.decl) =
  match d.Ast.d_init with
  | None -> ()
  | Some init ->
      Option.iter (f Write) (resolve d.Ast.d_name);
      List.iter (visit resolve f)
        (match init with
        | Ast.Init_expr e -> [ e ]
        | Ast.Init_list es -> es)

(* Every access of a statement and of the statements nested in it.  [f]
   takes the multiplier of the statement an access sits in: [weight] at
   the top, times [trips l] inside the body of loop [l]. *)
let rec visit_stmt resolve ~trips (f : int -> sink) ~weight (s : Ast.stmt) =
  let sink = f weight in
  List.iter (visit resolve sink) (Visit.shallow_exprs s);
  (* shallow_exprs carries an initializer's reads; its write is here *)
  (match s.Ast.s_desc with
  | Ast.Sdecl ds | Ast.Sfor (Ast.For_decl ds, _, _, _) ->
      List.iter
        (fun (d : Ast.decl) ->
          if d.Ast.d_init <> None then
            Option.iter (sink Write) (resolve d.Ast.d_name))
        ds
  | Ast.Sfor ((Ast.For_none | Ast.For_expr _), _, _, _)
  | Ast.Sexpr _ | Ast.Sblock _ | Ast.Sif _ | Ast.Swhile _ | Ast.Sdo _
  | Ast.Sreturn _ | Ast.Sbreak | Ast.Scontinue | Ast.Snull -> ());
  match s.Ast.s_desc with
  | Ast.Sblock stmts -> List.iter (visit_stmt resolve ~trips f ~weight) stmts
  | Ast.Sif (_, a, b) ->
      visit_stmt resolve ~trips f ~weight a;
      Option.iter (visit_stmt resolve ~trips f ~weight) b
  | Ast.Swhile (_, body) | Ast.Sdo (body, _) | Ast.Sfor (_, _, _, body) ->
      visit_stmt resolve ~trips f ~weight:(weight * trips s) body
  | Ast.Sexpr _ | Ast.Sdecl _ | Ast.Sreturn _ | Ast.Sbreak | Ast.Scontinue
  | Ast.Snull -> ()

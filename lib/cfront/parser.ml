(* Recursive-descent parser for the C subset.

   Type names: besides the built-in specifiers, identifiers registered as
   type names (the pthread/RCCE opaque types by default) start declarations,
   which is how [pthread_t threads[3];] parses without a full typedef
   machinery. *)

let default_type_names =
  [ "pthread_t"; "pthread_attr_t"; "pthread_mutex_t"; "pthread_mutexattr_t";
    "pthread_cond_t"; "pthread_condattr_t"; "pthread_barrier_t";
    "pthread_barrierattr_t"; "size_t"; "ssize_t"; "FILE";
    "RCCE_FLAG"; "RCCE_COMM" ]

type t = {
  toks : Token.located array;
  mutable pos : int;
  type_names : string list;
  includes : string list;
}

let create ?(type_names = default_type_names) ?file src =
  (* macros are expanded before lexing; sources without directives pass
     through unchanged *)
  let src = Preproc.expand ?file src in
  let toks, includes = Lexer.tokenize ?file src in
  { toks = Array.of_list toks; pos = 0; type_names; includes }

let cur t = t.toks.(t.pos)
let peek t = (cur t).Token.tok
let peek_at t n =
  let i = t.pos + n in
  if i < Array.length t.toks then t.toks.(i).Token.tok else Token.Eof

let loc t = (cur t).Token.loc

let advance t = if t.pos < Array.length t.toks - 1 then t.pos <- t.pos + 1

let fail t fmt = Srcloc.error (loc t) fmt

let expect t tok =
  if Token.equal (peek t) tok then advance t
  else
    fail t "expected '%s' but found '%s'" (Token.to_string tok)
      (Token.to_string (peek t))

let accept t tok =
  if Token.equal (peek t) tok then begin
    advance t;
    true
  end
  else false

let expect_ident t =
  match peek t with
  | Token.Ident name ->
      advance t;
      name
  | other -> fail t "expected identifier, found '%s'" (Token.to_string other)

(* --- types -------------------------------------------------------------- *)

let is_type_start t =
  match peek t with
  | Token.Kw
      ( Token.Kvoid | Token.Kchar | Token.Kint | Token.Klong | Token.Kshort
      | Token.Kunsigned | Token.Ksigned | Token.Kfloat | Token.Kdouble
      | Token.Kconst | Token.Kvolatile | Token.Kstatic | Token.Kextern ) ->
      true
  | Token.Ident name -> List.mem name t.type_names
  | _ -> false

(* Parse declaration specifiers: qualifiers + one base type.  Returns
   (static?, base type). *)
let parse_specifiers t =
  let static = ref false in
  let unsigned = ref false in
  let base = ref None in
  let set ty =
    match !base with
    | None -> base := Some ty
    | Some Ctype.Long when Ctype.equal ty Ctype.Int -> ()  (* long int *)
    | Some Ctype.Int when Ctype.equal ty Ctype.Long -> base := Some Ctype.Long
    | Some _ -> fail t "duplicate type specifier"
  in
  let rec loop () =
    match peek t with
    | Token.Kw Token.Kstatic -> advance t; static := true; loop ()
    | Token.Kw (Token.Kextern | Token.Kconst | Token.Kvolatile
               | Token.Ksigned) ->
        advance t; loop ()
    | Token.Kw Token.Kunsigned -> advance t; unsigned := true; loop ()
    | Token.Kw Token.Kvoid -> advance t; set Ctype.Void; loop ()
    | Token.Kw Token.Kchar -> advance t; set Ctype.Char; loop ()
    | Token.Kw Token.Kshort -> advance t; set Ctype.Short; loop ()
    | Token.Kw Token.Kint -> advance t; set Ctype.Int; loop ()
    | Token.Kw Token.Klong -> advance t; set Ctype.Long; loop ()
    | Token.Kw Token.Kfloat -> advance t; set Ctype.Float; loop ()
    | Token.Kw Token.Kdouble -> advance t; set Ctype.Double; loop ()
    | Token.Ident name when List.mem name t.type_names && !base = None ->
        advance t; set (Ctype.Named name); loop ()
    | _ -> ()
  in
  loop ();
  let base =
    match !base with
    | Some ty -> ty
    | None -> if !unsigned then Ctype.Int else fail t "expected type specifier"
  in
  let base = if !unsigned then Ctype.Unsigned base else base in
  (!static, base)

(* Abstract declarator for casts and sizeof: pointers only — the subset's
   casts are like "(void*)" and "(int)". *)
let parse_abstract_declarator t base =
  let ty = ref base in
  while accept t Token.Star do
    ty := Ctype.Ptr !ty
  done;
  !ty

(* --- expressions -------------------------------------------------------- *)

let rec parse_expr t = parse_comma t

and parse_comma t =
  let e = parse_assign t in
  if accept t Token.Comma then Ast.Comma (e, parse_comma t) else e

and parse_assign t =
  let lhs = parse_cond t in
  let mk op =
    advance t;
    Ast.Assign (op, lhs, parse_assign t)
  in
  match peek t with
  | Token.Eq -> mk None
  | Token.Plus_eq -> mk (Some Ast.Add)
  | Token.Minus_eq -> mk (Some Ast.Sub)
  | Token.Star_eq -> mk (Some Ast.Mul)
  | Token.Slash_eq -> mk (Some Ast.Div)
  | Token.Percent_eq -> mk (Some Ast.Mod)
  | Token.Amp_eq -> mk (Some Ast.Band)
  | Token.Bar_eq -> mk (Some Ast.Bor)
  | Token.Caret_eq -> mk (Some Ast.Bxor)
  | Token.Lt_lt_eq -> mk (Some Ast.Shl)
  | Token.Gt_gt_eq -> mk (Some Ast.Shr)
  | _ -> lhs

and parse_cond t =
  let c = parse_binary t 0 in
  if accept t Token.Question then begin
    let e1 = parse_assign t in
    expect t Token.Colon;
    let e2 = parse_cond t in
    Ast.Cond (c, e1, e2)
  end
  else c

(* Binary operators by precedence level, lowest first. *)
and binop_of_token = function
  | Token.Bar_bar -> Some (0, Ast.Lor)
  | Token.Amp_amp -> Some (1, Ast.Land)
  | Token.Bar -> Some (2, Ast.Bor)
  | Token.Caret -> Some (3, Ast.Bxor)
  | Token.Amp -> Some (4, Ast.Band)
  | Token.Eq_eq -> Some (5, Ast.Eq)
  | Token.Bang_eq -> Some (5, Ast.Ne)
  | Token.Lt -> Some (6, Ast.Lt)
  | Token.Gt -> Some (6, Ast.Gt)
  | Token.Le -> Some (6, Ast.Le)
  | Token.Ge -> Some (6, Ast.Ge)
  | Token.Lt_lt -> Some (7, Ast.Shl)
  | Token.Gt_gt -> Some (7, Ast.Shr)
  | Token.Plus -> Some (8, Ast.Add)
  | Token.Minus -> Some (8, Ast.Sub)
  | Token.Star -> Some (9, Ast.Mul)
  | Token.Slash -> Some (9, Ast.Div)
  | Token.Percent -> Some (9, Ast.Mod)
  | _ -> None

and parse_binary t min_level =
  let lhs = ref (parse_unary t) in
  let continue = ref true in
  while !continue do
    match binop_of_token (peek t) with
    | Some (level, op) when level >= min_level ->
        advance t;
        let rhs = parse_binary t (level + 1) in
        lhs := Ast.Binary (op, !lhs, rhs)
    | Some _ | None -> continue := false
  done;
  !lhs

and parse_unary t =
  match peek t with
  | Token.Minus -> advance t; Ast.Unary (Ast.Neg, parse_unary t)
  | Token.Bang -> advance t; Ast.Unary (Ast.Not, parse_unary t)
  | Token.Tilde -> advance t; Ast.Unary (Ast.Bnot, parse_unary t)
  | Token.Star -> advance t; Ast.Unary (Ast.Deref, parse_unary t)
  | Token.Amp -> advance t; Ast.Unary (Ast.Addr, parse_unary t)
  | Token.Plus -> advance t; parse_unary t
  | Token.Plus_plus -> advance t; Ast.Unary (Ast.Preinc, parse_unary t)
  | Token.Minus_minus -> advance t; Ast.Unary (Ast.Predec, parse_unary t)
  | Token.Kw Token.Ksizeof ->
      advance t;
      if Token.equal (peek t) Token.Lparen && is_type_start_at t 1 then begin
        expect t Token.Lparen;
        let _, base = parse_specifiers t in
        let ty = parse_abstract_declarator t base in
        expect t Token.Rparen;
        Ast.Sizeof_type ty
      end
      else Ast.Sizeof_expr (parse_unary t)
  | Token.Lparen when is_type_start_at t 1 ->
      (* cast expression *)
      expect t Token.Lparen;
      let _, base = parse_specifiers t in
      let ty = parse_abstract_declarator t base in
      expect t Token.Rparen;
      Ast.Cast (ty, parse_unary t)
  | _ -> parse_postfix t

and is_type_start_at t n =
  match peek_at t n with
  | Token.Kw
      ( Token.Kvoid | Token.Kchar | Token.Kint | Token.Klong | Token.Kshort
      | Token.Kunsigned | Token.Ksigned | Token.Kfloat | Token.Kdouble
      | Token.Kconst ) ->
      true
  | Token.Ident name -> List.mem name t.type_names
  | _ -> false

and parse_postfix t =
  let e = ref (parse_primary t) in
  let continue = ref true in
  while !continue do
    match peek t with
    | Token.Lbracket ->
        advance t;
        let idx = parse_expr t in
        expect t Token.Rbracket;
        e := Ast.Index (!e, idx)
    | Token.Plus_plus ->
        advance t;
        e := Ast.Unary (Ast.Postinc, !e)
    | Token.Minus_minus ->
        advance t;
        e := Ast.Unary (Ast.Postdec, !e)
    | _ -> continue := false
  done;
  !e

and parse_primary t =
  match peek t with
  | Token.Int_lit n -> advance t; Ast.Int_lit n
  | Token.Float_lit f -> advance t; Ast.Float_lit f
  | Token.Str_lit s -> advance t; Ast.Str_lit s
  | Token.Char_lit c -> advance t; Ast.Char_lit c
  | Token.Ident name ->
      advance t;
      if Token.equal (peek t) Token.Lparen then begin
        advance t;
        let args = parse_args t in
        expect t Token.Rparen;
        Ast.Call (name, args)
      end
      else Ast.Var name
  | Token.Lparen ->
      advance t;
      let e = parse_expr t in
      expect t Token.Rparen;
      e
  | other -> fail t "expected expression, found '%s'" (Token.to_string other)

and parse_args t =
  if Token.equal (peek t) Token.Rparen then []
  else
    let rec loop acc =
      let e = parse_assign t in
      if accept t Token.Comma then loop (e :: acc) else List.rev (e :: acc)
    in
    loop []

(* --- declarations ------------------------------------------------------- *)

(* One declarator after the specifiers: pointers, name, array suffixes. *)
let parse_declarator t base =
  let ty = ref base in
  while accept t Token.Star do
    ty := Ctype.Ptr !ty
  done;
  let name = expect_ident t in
  let rec arrays ty =
    if accept t Token.Lbracket then begin
      match peek t with
      | Token.Rbracket ->
          advance t;
          Ctype.Array (arrays ty, None)
      | Token.Int_lit n ->
          advance t;
          expect t Token.Rbracket;
          Ctype.Array (arrays ty, Some n)
      | other ->
          fail t "expected constant array length, found '%s'"
            (Token.to_string other)
    end
    else ty
  in
  (name, arrays !ty)

let parse_initializer t =
  if accept t Token.Lbrace then begin
    let rec loop acc =
      let e = parse_assign t in
      if accept t Token.Comma then
        if Token.equal (peek t) Token.Rbrace then List.rev (e :: acc)
        else loop (e :: acc)
      else List.rev (e :: acc)
    in
    let elems =
      if Token.equal (peek t) Token.Rbrace then [] else loop []
    in
    expect t Token.Rbrace;
    Ast.Init_list elems
  end
  else Ast.Init_expr (parse_assign t)

(* Declarations sharing one specifier: [int a = 0, *b, c[3];] without the
   trailing semicolon. *)
let parse_decl_group t =
  let dloc = loc t in
  let static, base = parse_specifiers t in
  let rec loop acc =
    let name, ty = parse_declarator t base in
    let init = if accept t Token.Eq then Some (parse_initializer t) else None in
    let d = Ast.decl ~loc:dloc ~static ?init name ty in
    if accept t Token.Comma then loop (d :: acc) else List.rev (d :: acc)
  in
  loop []

(* --- statements --------------------------------------------------------- *)

let rec parse_stmt t =
  let sloc = loc t in
  match peek t with
  | Token.Lbrace ->
      advance t;
      let stmts = parse_block_items t in
      expect t Token.Rbrace;
      Ast.stmt ~loc:sloc (Ast.Sblock stmts)
  | Token.Semi ->
      advance t;
      Ast.stmt ~loc:sloc Ast.Snull
  | Token.Kw Token.Kif ->
      advance t;
      expect t Token.Lparen;
      let cond = parse_expr t in
      expect t Token.Rparen;
      let then_branch = parse_stmt t in
      let else_branch =
        if accept t (Token.Kw Token.Kelse) then Some (parse_stmt t) else None
      in
      Ast.stmt ~loc:sloc (Ast.Sif (cond, then_branch, else_branch))
  | Token.Kw Token.Kwhile ->
      advance t;
      expect t Token.Lparen;
      let cond = parse_expr t in
      expect t Token.Rparen;
      let body = parse_stmt t in
      Ast.stmt ~loc:sloc (Ast.Swhile (cond, body))
  | Token.Kw Token.Kdo ->
      advance t;
      let body = parse_stmt t in
      expect t (Token.Kw Token.Kwhile);
      expect t Token.Lparen;
      let cond = parse_expr t in
      expect t Token.Rparen;
      expect t Token.Semi;
      Ast.stmt ~loc:sloc (Ast.Sdo (body, cond))
  | Token.Kw Token.Kfor ->
      advance t;
      expect t Token.Lparen;
      let init =
        if Token.equal (peek t) Token.Semi then Ast.For_none
        else if is_type_start t then Ast.For_decl (parse_decl_group t)
        else Ast.For_expr (parse_expr t)
      in
      expect t Token.Semi;
      let cond =
        if Token.equal (peek t) Token.Semi then None else Some (parse_expr t)
      in
      expect t Token.Semi;
      let step =
        if Token.equal (peek t) Token.Rparen then None else Some (parse_expr t)
      in
      expect t Token.Rparen;
      let body = parse_stmt t in
      Ast.stmt ~loc:sloc (Ast.Sfor (init, cond, step, body))
  | Token.Kw Token.Kreturn ->
      advance t;
      let e =
        if Token.equal (peek t) Token.Semi then None else Some (parse_expr t)
      in
      expect t Token.Semi;
      Ast.stmt ~loc:sloc (Ast.Sreturn e)
  | Token.Kw Token.Kbreak ->
      advance t;
      expect t Token.Semi;
      Ast.stmt ~loc:sloc Ast.Sbreak
  | Token.Kw Token.Kcontinue ->
      advance t;
      expect t Token.Semi;
      Ast.stmt ~loc:sloc Ast.Scontinue
  | _ when is_type_start t ->
      let decls = parse_decl_group t in
      expect t Token.Semi;
      Ast.stmt ~loc:sloc (Ast.Sdecl decls)
  | _ ->
      let e = parse_expr t in
      expect t Token.Semi;
      Ast.stmt ~loc:sloc (Ast.Sexpr e)

and parse_block_items t =
  let rec loop acc =
    if Token.equal (peek t) Token.Rbrace || Token.equal (peek t) Token.Eof
    then List.rev acc
    else loop (parse_stmt t :: acc)
  in
  loop []

(* --- top level ---------------------------------------------------------- *)

let parse_params t =
  if accept t Token.Rparen then []
  else if
    Token.equal (peek t) (Token.Kw Token.Kvoid)
    && Token.equal (peek_at t 1) Token.Rparen
  then begin
    advance t;
    advance t;
    []
  end
  else begin
    let rec loop acc =
      let _, base = parse_specifiers t in
      let name, ty = parse_declarator t base in
      let p = (name, ty) in
      if accept t Token.Comma then loop (p :: acc)
      else begin
        expect t Token.Rparen;
        List.rev (p :: acc)
      end
    in
    loop []
  end

let parse_global t =
  let gloc = loc t in
  let static, base = parse_specifiers t in
  let name, ty = parse_declarator t base in
  if accept t Token.Lparen then begin
    (* function definition or prototype *)
    let params = parse_params t in
    if accept t Token.Semi then
      [ Ast.Gproto (name, Ctype.Func (ty, List.map snd params), gloc) ]
    else begin
      expect t Token.Lbrace;
      let body = parse_block_items t in
      expect t Token.Rbrace;
      [ Ast.Gfunc (Ast.func ~loc:gloc name ~ret:ty ~params body) ]
    end
  end
  else begin
    (* global variable(s) *)
    let first_init =
      if accept t Token.Eq then Some (parse_initializer t) else None
    in
    let first = Ast.decl ~loc:gloc ~static ?init:first_init name ty in
    let rec loop acc =
      if accept t Token.Comma then begin
        let name, ty = parse_declarator t base in
        let init =
          if accept t Token.Eq then Some (parse_initializer t) else None
        in
        loop (Ast.decl ~loc:gloc ~static ?init name ty :: acc)
      end
      else begin
        expect t Token.Semi;
        List.rev acc
      end
    in
    List.map (fun d -> Ast.Gvar d) (loop [ first ])
  end

let parse_program t =
  let rec loop acc =
    if Token.equal (peek t) Token.Eof then List.rev acc
    else loop (List.rev_append (parse_global t) acc)
  in
  let globals = loop [] in
  { Ast.p_includes = t.includes; p_globals = globals }

let program ?type_names ?file src =
  Scope.uniquify
    (Scope.merge_globals (parse_program (create ?type_names ?file src)))

let expression ?type_names ?file src =
  let t = create ?type_names ?file src in
  let e = parse_expr t in
  if not (Token.equal (peek t) Token.Eof) then
    fail t "trailing input after expression";
  e

let statement ?type_names ?file src =
  let t = create ?type_names ?file src in
  let s = parse_stmt t in
  if not (Token.equal (peek t) Token.Eof) then
    fail t "trailing input after statement";
  s

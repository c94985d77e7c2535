open Cfront

(* Parser: precedence, declarators, statements, error reporting, and the
   print->parse round trip, including a qcheck property over randomly
   generated expressions. *)

let roundtrip_expr src =
  (* parse, print, reparse: the printed forms must agree *)
  let e1 = Parser.expression src in
  let p1 = Pretty.expr e1 in
  let e2 = Parser.expression p1 in
  let p2 = Pretty.expr e2 in
  Alcotest.(check string) ("round trip of " ^ src) p1 p2;
  p1

let check_expr msg src expected_printed =
  let e = Parser.expression src in
  Alcotest.(check string) msg expected_printed (Pretty.expr e)

let test_precedence () =
  check_expr "mul over add" "a + b * c" "a + b * c";
  check_expr "parens preserved by meaning" "(a + b) * c" "(a + b) * c";
  check_expr "relational vs logical" "a < b && c > d" "a < b && c > d";
  check_expr "assign right-assoc" "a = b = c" "a = b = c";
  check_expr "ternary" "a ? b : c ? d : e" "a ? b : c ? d : e";
  check_expr "unary binds tighter" "-a * b" "-a * b";
  check_expr "shift and compare" "a << 2 < b" "a << 2 < b";
  check_expr "bitwise layering" "a | b ^ c & d" "a | b ^ c & d";
  check_expr "postfix over prefix" "*p++" "*p++";
  check_expr "index of deref needs parens" "(*p)[0]" "(*p)[0]"

let test_calls_and_casts () =
  check_expr "call with args" "f(a, b + 1, g())" "f(a, b + 1, g())";
  check_expr "cast of call" "(int)f(x)" "(int)f(x)";
  check_expr "cast pointer" "(void*)x" "(void*)x";
  check_expr "sizeof type" "sizeof(int)" "sizeof(int)";
  check_expr "sizeof pointer type" "sizeof(double*)" "sizeof(double*)";
  check_expr "sizeof expression" "sizeof x" "sizeof x";
  check_expr "nested cast arithmetic" "(double)(a + b)" "(double)(a + b)"

let test_assign_ops () =
  List.iter
    (fun op ->
      let src = Printf.sprintf "a %s b" op in
      ignore (roundtrip_expr src))
    [ "="; "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^="; "<<="; ">>=" ]

let parse_fn src =
  let p = Parser.program src in
  match Ast.functions p with
  | [ fn ] -> fn
  | fns -> Alcotest.failf "expected one function, got %d" (List.length fns)

let test_statements () =
  let fn =
    parse_fn
      {|void f(void) {
          int i;
          for (i = 0; i < 10; i++) { g(i); }
          while (i > 0) i--;
          do { i++; } while (i < 5);
          if (i == 5) h(); else i = 0;
          return;
        }|}
  in
  Alcotest.(check int) "six statements" 6 (List.length fn.Ast.f_body)

let test_declarations () =
  let p =
    Parser.program
      "int a = 1, *b, c[3];\ndouble d[4] = {1.0, 2.0, 3.0, 4.0};\n\
       static int s;\nunsigned int u;"
  in
  let decls = Ast.global_decls p in
  Alcotest.(check int) "six declarations" 6 (List.length decls);
  let find name =
    List.find (fun (d : Ast.decl) -> d.Ast.d_name = name) decls
  in
  Alcotest.(check bool) "a is int" true
    (Ctype.equal (find "a").Ast.d_type Ctype.Int);
  Alcotest.(check bool) "b is int*" true
    (Ctype.equal (find "b").Ast.d_type (Ctype.Ptr Ctype.Int));
  Alcotest.(check bool) "c is int[3]" true
    (Ctype.equal (find "c").Ast.d_type (Ctype.Array (Ctype.Int, Some 3)));
  Alcotest.(check bool) "s is static" true (find "s").Ast.d_static;
  Alcotest.(check bool) "u is unsigned" true
    (Ctype.equal (find "u").Ast.d_type (Ctype.Unsigned Ctype.Int))

let test_typedef_names () =
  let p = Parser.program "pthread_t t;\npthread_mutex_t m;" in
  Alcotest.(check int) "two declarations" 2
    (List.length (Ast.global_decls p))

let test_prototypes () =
  let p = Parser.program "int f(int a, double b);\nvoid g(void);" in
  let protos =
    List.filter_map
      (function Ast.Gproto (n, _, _) -> Some n | _ -> None)
      p.Ast.p_globals
  in
  Alcotest.(check (list string)) "both prototypes" [ "f"; "g" ] protos

let test_function_params () =
  let fn = parse_fn "int add(int a, int *b, double c[4]) { return a; }" in
  Alcotest.(check int) "three params" 3 (List.length fn.Ast.f_params)

let expect_parse_error msg src =
  match Parser.program src with
  | _ -> Alcotest.failf "%s: expected a parse error" msg
  | exception Srcloc.Error _ -> ()

let test_errors () =
  expect_parse_error "missing semicolon" "int a int b;";
  expect_parse_error "unbalanced paren" "int f() { return (1; }";
  expect_parse_error "missing brace" "int f() { return 1;";
  expect_parse_error "bad for" "int f() { for (;;;) {} }";
  expect_parse_error "stray else" "int f() { else; }"

let test_program_roundtrip () =
  let src = Exp.Example41.source in
  let p1 = Parser.program src in
  let s1 = Pretty.program p1 in
  let p2 = Parser.program s1 in
  let s2 = Pretty.program p2 in
  Alcotest.(check string) "Example 4.1 print fixpoint" s1 s2

(* --- qcheck: random expressions survive the round trip ------------------- *)

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun n -> Ast.Int_lit (abs n mod 1000)) int;
        map (fun f -> Ast.Float_lit (Float.abs f +. 0.5))
          (float_bound_inclusive 100.0);
        oneofl [ Ast.Var "a"; Ast.Var "b"; Ast.Var "c" ] ]
  in
  let binops =
    [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Eq; Ast.Ne; Ast.Lt;
      Ast.Gt; Ast.Le; Ast.Ge; Ast.Land; Ast.Lor; Ast.Band; Ast.Bor;
      Ast.Bxor; Ast.Shl; Ast.Shr ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [ (2, leaf);
               (4,
                map3
                  (fun op a b -> Ast.Binary (op, a, b))
                  (oneofl binops) (self (n / 2)) (self (n / 2)));
               (1, map (fun e -> Ast.Unary (Ast.Neg, e)) (self (n - 1)));
               (1, map (fun e -> Ast.Unary (Ast.Not, e)) (self (n - 1)));
               (1,
                map3
                  (fun a b c -> Ast.Cond (a, b, c))
                  (self (n / 3)) (self (n / 3)) (self (n / 3)));
               (1,
                map (fun b -> Ast.Index (Ast.Var "arr", b)) (self (n / 2)));
               (1,
                map (fun args -> Ast.Call ("f", args))
                  (list_size (int_bound 3) (self (n / 3)))) ])

let arbitrary_expr =
  QCheck.make gen_expr ~print:(fun e -> Pretty.expr e)

let qcheck_roundtrip =
  QCheck.Test.make ~name:"print/parse round trip on random expressions"
    ~count:500 arbitrary_expr (fun e ->
      let printed = Pretty.expr e in
      match Parser.expression printed with
      | reparsed -> String.equal printed (Pretty.expr reparsed)
      | exception Srcloc.Error (_, msg) ->
          QCheck.Test.fail_reportf "failed to reparse %S: %s" printed msg)

(* --- qcheck: random statements survive the round trip --------------------- *)

let gen_stmt =
  let open QCheck.Gen in
  let simple =
    oneof
      [ map (fun e -> Ast.stmt (Ast.Sexpr (Ast.call "f" [ e ]))) gen_expr;
        map (fun e -> Ast.stmt (Ast.Sexpr (Ast.assign (Ast.var "x") e)))
          gen_expr;
        return (Ast.stmt (Ast.Sreturn (Some (Ast.var "x"))));
        return (Ast.stmt Ast.Snull) ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then simple
         else
           frequency
             [ (3, simple);
               (2,
                map2
                  (fun c body -> Ast.stmt (Ast.Sif (c, body, None)))
                  gen_expr (self (n / 2)));
               (2,
                map3
                  (fun c a b -> Ast.stmt (Ast.Sif (c, a, Some b)))
                  gen_expr (self (n / 2)) (self (n / 2)));
               (1,
                map2
                  (fun c body -> Ast.stmt (Ast.Swhile (c, body)))
                  gen_expr (self (n / 2)));
               (1,
                map2
                  (fun c body -> Ast.stmt (Ast.Sdo (body, c)))
                  gen_expr (self (n / 2)));
               (1,
                map
                  (fun stmts -> Ast.stmt (Ast.Sblock stmts))
                  (list_size (int_bound 4) (self (n / 3)))) ])

let qcheck_stmt_roundtrip =
  QCheck.Test.make ~count:500
    ~name:"print/parse round trip on random statements (dangling else)"
    (QCheck.make gen_stmt ~print:Pretty.stmt)
    (fun s ->
      let printed = Pretty.stmt s in
      match Parser.statement printed with
      | reparsed -> String.equal printed (Pretty.stmt reparsed)
      | exception Srcloc.Error (_, msg) ->
          QCheck.Test.fail_reportf "failed to reparse:\n%s\nerror: %s"
            printed msg)

let test_dangling_else_roundtrip () =
  (* the classic ambiguity: the printed form must keep the else attached
     to the OUTER if *)
  let inner =
    Ast.stmt (Ast.Sif (Ast.var "b",
                       Ast.stmt (Ast.Sexpr (Ast.call "x" [])), None))
  in
  let outer =
    Ast.stmt
      (Ast.Sif (Ast.var "a", inner,
                Some (Ast.stmt (Ast.Sexpr (Ast.call "y" [])))))
  in
  let printed = Pretty.stmt outer in
  let reparsed = Parser.statement printed in
  Alcotest.(check string) "fixpoint" printed (Pretty.stmt reparsed)

(* [Scope.uniquify] renames each parameter or local whose name is taken
   in its function — by a global, a function, or an earlier parameter or
   local — with the uses it binds, to a name its function does not take,
   and rejects a use that nothing in scope binds.  A program that shadows
   nothing comes back physically unchanged, and a second pass changes
   nothing. *)
let test_uniquify () =
  let raw src = Parser.parse_program (Parser.create src) in
  let check msg src expected =
    Alcotest.(check string) msg
      (Pretty.program (raw expected))
      (Pretty.program (Scope.uniquify (raw src)))
  in
  let rejects msg src expected =
    match Scope.uniquify (raw src) with
    | _ -> Alcotest.failf "%s: accepted" msg
    | exception Srcloc.Error (_, m) -> Alcotest.(check string) msg expected m
  in
  check "a local shadows a global"
    "int y;\nint main() { { int y = 1; y = y + 1; } return y; }"
    "int y;\nint main() { { int y__1 = 1; y__1 = y__1 + 1; } return y; }";
  check "a parameter takes a function's name"
    "int g() { return 0; }\nint f(int g) { return g; }"
    "int g() { return 0; }\nint f(int g__1) { return g__1; }";
  check "a block local shadows a parameter"
    "int f(int n) { { int n = 2; return n; } }"
    "int f(int n) { { int n__1 = 2; return n__1; } }";
  check "sibling loops declare one name"
    "int f() { int s = 0; for (int i = 0; i < 2; i++) s += i;\n\
     for (int i = 0; i < 2; i++) s += i; return s; }"
    "int f() { int s = 0; for (int i = 0; i < 2; i++) s += i;\n\
     for (int i__1 = 0; i__1 < 2; i__1++) s += i__1; return s; }";
  rejects "a use that nothing in scope binds"
    "int f() { { int x = 1; } return x; }"
    "identifier 'x' is not declared in this scope";
  check "a use before the declaration reads the global"
    "int x;\nint f() { int s = x; int x = 2; return s + x; }"
    "int x;\nint f() { int s = x; int x__1 = 2; return s + x__1; }";
  check "the fresh name is one no global takes"
    "int y;\nint y__1;\nint f() { int y = 0; return y + y__1; }"
    "int y;\nint y__1;\nint f() { int y__2 = 0; return y__2 + y__1; }";
  rejects "nor a later use that nothing binds"
    "int f() { int x; { int x; x = 1; } x__1 = 3; return x; }"
    "identifier 'x__1' is not declared in this scope";
  let plain =
    raw
      "int g;\n\
       int f(int a) { int b = a + g; for (int i = 0; i < b; i++) b--;\n\
       return b; }"
  in
  Alcotest.(check bool) "a program that shadows nothing is ==" true
    (Scope.uniquify plain == plain);
  let once =
    Scope.uniquify
      (raw "int y;\nint main() { int y = 0; { int y = 1; } return y; }")
  in
  Alcotest.(check bool) "a second uniquify changes nothing" true
    (Scope.uniquify once == once);
  match Scope.uniquify (raw "int f() { int a; int a; return 0; }") with
  | _ -> Alcotest.fail "a second declaration in one block was accepted"
  | exception Srcloc.Error (_, msg) ->
      Alcotest.(check string) "duplicate" "duplicate declaration of a@f" msg

(* Repeated file-scope declarations of one type are one object: it
   takes the first's place, or the initializer's when that names a
   variable declared after the first; a program that repeats no name
   comes back physically unchanged. *)
let test_merge_globals () =
  let raw src = Parser.parse_program (Parser.create src) in
  let check msg src expected =
    Alcotest.(check string) msg
      (Pretty.program (raw expected))
      (Pretty.program (Scope.merge_globals (raw src)))
  in
  check "a tentative definition takes the later initializer"
    "int x;\nint f() { return x; }\nint x = 3;"
    "int x = 3;\nint f() { return x; }";
  check "an initializer naming a later variable stays after it"
    "int *p;\nint y = 5;\nint *p = &y;"
    "int y = 5;\nint *p = &y;";
  let once = raw "int x = 1;\nint y;" in
  Alcotest.(check bool) "no repeat, same program" true
    (Scope.merge_globals once == once)

let suite =
  [
    Alcotest.test_case "precedence" `Quick test_precedence;
    Alcotest.test_case "calls and casts" `Quick test_calls_and_casts;
    Alcotest.test_case "assignment operators" `Quick test_assign_ops;
    Alcotest.test_case "statements" `Quick test_statements;
    Alcotest.test_case "declarations" `Quick test_declarations;
    Alcotest.test_case "typedef names" `Quick test_typedef_names;
    Alcotest.test_case "prototypes" `Quick test_prototypes;
    Alcotest.test_case "function params" `Quick test_function_params;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "program round trip" `Quick test_program_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "dangling else" `Quick test_dangling_else_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_stmt_roundtrip;
    Alcotest.test_case "uniquify names locals apart" `Quick test_uniquify;
    Alcotest.test_case "repeated file-scope declarations merge" `Quick
      test_merge_globals;
  ]

open Cfront

(* Symbol tables, the CFG builder and the dataflow solver. *)

let build src = Ir.Symtab.build (Parser.program src)

let test_symtab_scoping () =
  let st =
    build
      {|int g;
        int f(int a) { int x = a; return x; }
        int main() { int x = 2; return g + x; }|}
  in
  (* g, f's parameter, and the two distinct x's *)
  Alcotest.(check int) "four variables" 4 (List.length (Ir.Symtab.all st));
  let resolve ?func name =
    Option.map
      (fun (e : Ir.Symtab.entry) -> Ir.Var_id.to_string e.Ir.Symtab.id)
      (Ir.Symtab.resolve st ?func name)
  in
  Alcotest.(check (option string)) "x in f" (Some "x@f") (resolve ~func:"f" "x");
  Alcotest.(check (option string)) "x in main" (Some "x@main")
    (resolve ~func:"main" "x");
  Alcotest.(check (option string)) "g anywhere" (Some "g")
    (resolve ~func:"f" "g");
  Alcotest.(check (option string)) "param resolves" (Some "a@f(param)")
    (resolve ~func:"f" "a");
  Alcotest.(check (option string)) "unknown" None (resolve ~func:"f" "nope")

(* [Parser.program] names locals apart; the symbol table's own rule,
   a local over the global of its name, shows on a program it has not
   renamed. *)
let test_symtab_shadowing () =
  let st =
    Ir.Symtab.build
      (Parser.parse_program
         (Parser.create "int x;\nint f() { int x = 1; return x; }"))
  in
  match Ir.Symtab.resolve st ~func:"f" "x" with
  | Some e ->
      Alcotest.(check bool) "local shadows global" false
        (Ir.Var_id.is_global e.Ir.Symtab.id)
  | None -> Alcotest.fail "x should resolve"

let test_symtab_duplicates_rejected () =
  match build "int f() { int a; int a; return 0; }" with
  | _ -> Alcotest.fail "duplicate locals should be rejected"
  | exception Srcloc.Error _ -> ()

let cfg_of src =
  let p = Parser.program src in
  match Ast.functions p with
  | [ fn ] -> Ir.Cfg.build fn
  | _ -> Alcotest.fail "expected one function"

let test_cfg_straight_line () =
  let cfg = cfg_of "int f() { int a = 1; a = a + 1; return a; }" in
  (* entry, 3 statements, exit *)
  Alcotest.(check int) "five nodes" 5 (Ir.Cfg.length cfg);
  let entry = Ir.Cfg.node cfg cfg.Ir.Cfg.entry in
  Alcotest.(check int) "entry has one successor" 1
    (List.length entry.Ir.Cfg.succs)

let test_cfg_if_join () =
  let cfg =
    cfg_of "int f(int c) { int a; if (c) { a = 1; } else { a = 2; } return a; }"
  in
  (* the return node must have two predecessors (both branches) *)
  let return_node =
    Array.to_list cfg.Ir.Cfg.nodes
    |> List.find (fun n ->
           match n.Ir.Cfg.kind with
           | Ir.Cfg.Statement { Ast.s_desc = Ast.Sreturn _; _ } -> true
           | _ -> false)
  in
  Alcotest.(check int) "join at return" 2
    (List.length return_node.Ir.Cfg.preds)

let test_cfg_loop_back_edge () =
  let cfg = cfg_of "int f() { int i = 0; while (i < 3) { i++; } return i; }" in
  let cond =
    Array.to_list cfg.Ir.Cfg.nodes
    |> List.find (fun n ->
           match n.Ir.Cfg.kind with
           | Ir.Cfg.Condition _ -> true
           | _ -> false)
  in
  Alcotest.(check int) "condition has 2 preds (entry path + back edge)" 2
    (List.length cond.Ir.Cfg.preds)

let test_cfg_break_continue () =
  let cfg =
    cfg_of
      {|int f() {
          int i;
          for (i = 0; i < 10; i++) {
            if (i == 2) continue;
            if (i == 5) break;
            g(i);
          }
          return i;
        }|}
  in
  (* just structural sanity: everything reachable flows to exit *)
  let exit_node = Ir.Cfg.node cfg cfg.Ir.Cfg.exit in
  Alcotest.(check bool) "exit reachable" true
    (List.length exit_node.Ir.Cfg.preds >= 1);
  let order = Ir.Cfg.reverse_postorder cfg in
  Alcotest.(check bool) "rpo covers reachable nodes" true
    (List.length order >= 8)

let test_cfg_dot_renders () =
  let cfg = cfg_of "int f() { return 0; }" in
  let dot = Ir.Cfg.to_dot cfg in
  Alcotest.(check bool) "digraph present" true
    (String.length dot > 10 && String.sub dot 0 7 = "digraph")

(* Reaching-constants dataflow over a diamond: checks the solver joins
   properly at merges and reaches a fixed point on loops. *)
module Const_domain = struct
  type t = Unreached | Const of int | Top

  let bottom = Unreached
  let equal = ( = )

  let join a b =
    match a, b with
    | Unreached, x | x, Unreached -> x
    | Const a, Const b when a = b -> Const a
    | _, _ -> Top
end

module Const_flow = Ir.Dataflow.Forward (Const_domain)

let test_dataflow_diamond () =
  let cfg =
    cfg_of
      "int f(int c) { int a; if (c) { a = 1; } else { a = 1; } return a; }"
  in
  (* transfer: an assignment [a = k] makes the fact Const k *)
  let transfer (node : Ir.Cfg.node) fact =
    match node.Ir.Cfg.kind with
    | Ir.Cfg.Statement
        { Ast.s_desc = Ast.Sexpr (Ast.Assign (None, Ast.Var "a", Ast.Int_lit k));
          _ } ->
        Const_domain.Const k
    | _ -> fact
  in
  let result =
    Const_flow.solve cfg ~init:Const_domain.Top ~transfer
  in
  let at_exit = result.Const_flow.in_facts.(cfg.Ir.Cfg.exit) in
  Alcotest.(check bool) "both branches assign 1 -> Const 1 at exit" true
    (at_exit = Const_domain.Const 1)

let test_dataflow_conflicting_branches () =
  let cfg =
    cfg_of
      "int f(int c) { int a; if (c) { a = 1; } else { a = 2; } return a; }"
  in
  let transfer (node : Ir.Cfg.node) fact =
    match node.Ir.Cfg.kind with
    | Ir.Cfg.Statement
        { Ast.s_desc = Ast.Sexpr (Ast.Assign (None, Ast.Var "a", Ast.Int_lit k));
          _ } ->
        Const_domain.Const k
    | _ -> fact
  in
  let result = Const_flow.solve cfg ~init:Const_domain.Top ~transfer in
  Alcotest.(check bool) "conflicting constants join to Top" true
    (result.Const_flow.in_facts.(cfg.Ir.Cfg.exit) = Const_domain.Top)

(* Widening at loop heads, over a counter whose chains are finite but
   long (capped at 1 000), so the solver terminates either way: plain
   sweeps climb to the cap one increment at a time, and [~widen] jumps
   the loop head to the top. *)
module Count_domain = struct
  type t = Unreached | Upto of int | Any

  let bottom = Unreached
  let equal = ( = )

  let join a b =
    match a, b with
    | Unreached, x | x, Unreached -> x
    | Any, _ | _, Any -> Any
    | Upto a, Upto b -> Upto (Int.max a b)

  let widen old next =
    match old with
    | Unreached -> next
    | _ -> if equal old next then old else Any
end

module Count_flow = Ir.Dataflow.Forward (Count_domain)

let test_dataflow_widening () =
  let cfg =
    cfg_of "int f(int c) { int i; i = 0; while (c) { i = i + 1; } return i; }"
  in
  let transfer (node : Ir.Cfg.node) fact =
    match node.Ir.Cfg.kind with
    | Ir.Cfg.Statement
        { Ast.s_desc = Ast.Sexpr (Ast.Assign (None, Ast.Var "i", rhs)); _ } ->
        begin match rhs, fact with
        | Ast.Int_lit 0, _ -> Count_domain.Upto 0
        | _, Count_domain.Upto n -> Count_domain.Upto (Int.min (n + 1) 1_000)
        | _, f -> f
        end
    | _ -> fact
  in
  let head =
    Array.to_list cfg.Ir.Cfg.nodes
    |> List.find (fun n ->
           match n.Ir.Cfg.kind with
           | Ir.Cfg.Condition _ -> true
           | _ -> false)
  in
  let at_head result = result.Count_flow.in_facts.(head.Ir.Cfg.id) in
  Alcotest.(check bool) "widened loop head reads the top" true
    (at_head
       (Count_flow.solve ~widen:Count_domain.widen cfg
          ~init:Count_domain.Any ~transfer)
    = Count_domain.Any);
  Alcotest.(check bool) "plain sweeps reach the exact cap" true
    (at_head (Count_flow.solve cfg ~init:Count_domain.Any ~transfer)
    = Count_domain.Upto 1_000)

let test_var_id () =
  Alcotest.(check string) "global" "g" (Ir.Var_id.to_string (Ir.Var_id.global "g"));
  Alcotest.(check string) "local" "x@f"
    (Ir.Var_id.to_string (Ir.Var_id.local ~func:"f" "x"));
  Alcotest.(check bool) "distinct scopes differ" false
    (Ir.Var_id.equal (Ir.Var_id.local ~func:"f" "x")
       (Ir.Var_id.local ~func:"g" "x"));
  Alcotest.(check (option string)) "scope function" (Some "f")
    (Ir.Var_id.scope_function (Ir.Var_id.param ~func:"f" "p"))

let suite =
  [
    Alcotest.test_case "symtab scoping" `Quick test_symtab_scoping;
    Alcotest.test_case "symtab shadowing" `Quick test_symtab_shadowing;
    Alcotest.test_case "duplicate locals rejected" `Quick
      test_symtab_duplicates_rejected;
    Alcotest.test_case "cfg straight line" `Quick test_cfg_straight_line;
    Alcotest.test_case "cfg if join" `Quick test_cfg_if_join;
    Alcotest.test_case "cfg loop back edge" `Quick test_cfg_loop_back_edge;
    Alcotest.test_case "cfg break/continue" `Quick test_cfg_break_continue;
    Alcotest.test_case "cfg dot" `Quick test_cfg_dot_renders;
    Alcotest.test_case "dataflow diamond" `Quick test_dataflow_diamond;
    Alcotest.test_case "dataflow conflict" `Quick
      test_dataflow_conflicting_branches;
    Alcotest.test_case "var ids" `Quick test_var_id;
    Alcotest.test_case "dataflow widening at loop heads" `Quick
      test_dataflow_widening;
  ]

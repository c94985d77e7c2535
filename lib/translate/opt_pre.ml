open Cfront

(* Partial redundancy elimination of shared loads.

   Every dereference of a shared-DRAM pointer is an uncached
   memory-controller round trip, so a loop that re-reads the same shared
   scalar each iteration pays the full off-chip latency every time.
   Within a sync-free region of a data-race-free program no other core's
   write can be ordered between two reads of the same location, so the
   load is stable and can be performed once, into a private temporary
   the compiler knows is cacheable:

     while (...) { ... *v ... }
   becomes
     { T __pre_v_0 = *v;  while (...) { ... __pre_v_0 ... } }

   Two legality routes admit a pointer [v] (a shared allocation from the
   locality plan that did not escape):

   - route A: the plan classified [v]'s data read-only after the entry
     prologue — every write precedes the insertion point, so the loop
     body cannot observe a concurrent write no matter what it calls;
   - route B: the source race report has no concurrent writer for [v]
     AND the loop body is sync-free (no barrier/lock/flag operation, not
     even transitively through a defined callee) AND the body calls no
     defined function at all — a callee could store through an alias
     without synchronizing.

   Either way the loop body itself must not write through [v] and must
   not mention the bare pointer (passing it on could hide a write). *)

(* hoisted temporaries are named [__pre_<var>_<k>] *)
let temp_prefix = "__pre_"

let defined_functions program =
  List.filter_map
    (function Ast.Gfunc f -> Some f.Ast.f_name | _ -> None)
    program.Ast.p_globals

(* does the statement call any defined (program) function? *)
let calls_defined defined s =
  let found = ref false in
  Visit.iter_exprs_of_stmt
    (fun e ->
      match e with
      | Ast.Call (f, _) when List.mem f defined -> found := true
      | _ -> ())
    s;
  !found

(* occurrence scan for one pointer: reads of [*v], writes through [v]
   ([*v = ], [v[i] = ], increments), and bare mentions of [v] outside a
   dereference or index base *)
type occ = { mutable reads : bool; mutable writes : bool; mutable bare : bool }

let scan_stmt v s =
  let o = { reads = false; writes = false; bare = false } in
  let rec expr e =
    match e with
    | Ast.Unary (Ast.Deref, Ast.Var x) when String.equal x v -> o.reads <- true
    | Ast.Index (Ast.Var x, i) when String.equal x v ->
        (* a subscripted read is tame, but it is not the load we hoist *)
        expr i
    | Ast.Assign (_, lhs, rhs) ->
        (match lhs with
        | Ast.Unary (Ast.Deref, Ast.Var x) when String.equal x v ->
            o.writes <- true
        | Ast.Index (Ast.Var x, i) when String.equal x v ->
            o.writes <- true;
            expr i
        | lhs -> expr lhs);
        expr rhs
    | Ast.Unary ((Ast.Preinc | Ast.Predec | Ast.Postinc | Ast.Postdec), inner)
      -> (
        match inner with
        | Ast.Unary (Ast.Deref, Ast.Var x) when String.equal x v ->
            o.writes <- true
        | Ast.Index (Ast.Var x, i) when String.equal x v ->
            o.writes <- true;
            expr i
        | inner -> expr inner)
    | Ast.Var x when String.equal x v -> o.bare <- true
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
    | Ast.Var _ | Ast.Sizeof_type _ ->
        ()
    | Ast.Unary (_, a) | Ast.Cast (_, a) | Ast.Sizeof_expr a -> expr a
    | Ast.Binary (_, a, b) | Ast.Comma (a, b) ->
        expr a;
        expr b
    | Ast.Cond (a, b, c) ->
        expr a;
        expr b;
        expr c
    | Ast.Call (_, args) -> List.iter expr args
    | Ast.Index (a, i) ->
        expr a;
        expr i
  in
  (* contextual walk from each statement's root expressions only —
     [iter_exprs_of_stmt] would revisit the [Var v] inside a dereference
     as its own node and misreport it as a bare mention *)
  Visit.iter_stmt (fun s -> List.iter expr (Visit.shallow_exprs s)) s;
  o

let is_loop s =
  match s.Ast.s_desc with
  | Ast.Sfor _ | Ast.Swhile _ | Ast.Sdo _ -> true
  | _ -> false

let transform env (program : Ast.program) =
  let session = Pass.session env in
  let plan = Session.opt_plan session in
  let regions = Session.sync_regions session in
  let racy =
    Analysis.Race.racy_variables (Pass.source_races env)
    |> List.filter Ir.Var_id.is_global
    |> List.map (fun (v : Ir.Var_id.t) -> v.Ir.Var_id.name)
  in
  let defined = defined_functions program in
  let eligible =
    List.filter
      (fun (a : Opt.Opt_plan.shared_alloc) ->
        not (List.mem a.Opt.Opt_plan.sa_name plan.Opt.Opt_plan.escaped))
      plan.Opt.Opt_plan.allocs
  in
  let route_a (a : Opt.Opt_plan.shared_alloc) =
    List.mem a.Opt.Opt_plan.sa_name plan.Opt.Opt_plan.read_only
  in
  let fresh = ref 0 in
  let hoisted = ref 0 in
  let hoist_in_func (fn : Ast.func) =
    let rewrite s =
      if not (is_loop s) then None
      else begin
        let syncfree = not (Opt.Sync_regions.stmt_has_sync regions s) in
        let callfree = not (calls_defined defined s) in
        let vars =
          List.filter
            (fun (a : Opt.Opt_plan.shared_alloc) ->
              let v = a.Opt.Opt_plan.sa_name in
              let o = scan_stmt v s in
              o.reads && (not o.writes) && (not o.bare)
              && (route_a a
                 || (syncfree && callfree && not (List.mem v racy))))
            eligible
        in
        if vars = [] then None
        else begin
          let bindings =
            List.map
              (fun (a : Opt.Opt_plan.shared_alloc) ->
                let v = a.Opt.Opt_plan.sa_name in
                let tmp = Printf.sprintf "%s%s_%d" temp_prefix v !fresh in
                incr fresh;
                (v, tmp, a.Opt.Opt_plan.sa_elt))
              vars
          in
          let subst e =
            match e with
            | Ast.Unary (Ast.Deref, Ast.Var x) -> (
                match
                  List.find_opt (fun (v, _, _) -> String.equal v x) bindings
                with
                | Some (_, tmp, _) -> Ast.var tmp
                | None -> e)
            | e -> e
          in
          let decls =
            List.map
              (fun (v, tmp, elt) ->
                Ast.stmt
                  (Ast.Sdecl
                     [ Ast.decl
                         ~init:
                           (Ast.Init_expr (Ast.Unary (Ast.Deref, Ast.var v)))
                         tmp elt ]))
              bindings
          in
          List.iter
            (fun (v, tmp, _) ->
              incr hoisted;
              Pass.note env
                "opt-pre: hoisted shared load of *%s out of a loop in %s \
                 (temp %s)"
                v fn.Ast.f_name tmp)
            bindings;
          Some [ Ast.stmt (Ast.Sblock (decls @ [ Visit.map_stmt_exprs subst s ])) ]
        end
      end
    in
    { fn with Ast.f_body = Visit.rewrite_stmts_topdown rewrite fn.Ast.f_body }
  in
  let globals =
    List.map
      (function
        | Ast.Gfunc f -> Ast.Gfunc (hoist_in_func f)
        | g -> g)
      program.Ast.p_globals
  in
  if !hoisted = 0 then Pass.note env "opt-pre: no hoistable shared loads";
  { program with Ast.p_globals = globals }

let pass =
  { Pass.name = "opt-pre"; transform; forbids_after = [];
    must_follow = [ "shared-rewrite"; "add-rcce"; "opt-mpb-cache" ] }

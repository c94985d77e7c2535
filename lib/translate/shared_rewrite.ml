open Cfront

(* Stage 4 code generation: implicitly-shared variables become explicitly
   shared through the RCCE allocation API.

   For every variable whose final sharing status is Shared:
   - an array  T v[n]  becomes a global  T *v;  allocated with
     ALLOC(sizeof(T) * n);
   - a pointer T *v    keeps its declaration and gets ALLOC(sizeof(T) * 1)
     backing (the thesis's Example 4.2 shape);
   - a scalar  T v     becomes  T *v;  with ALLOC(sizeof(T) * 1), and every
     use of v is rewritten to  *v  (locals are named apart from globals,
     so no local shadows it);
   where ALLOC is RCCE_shmalloc for off-chip placement and RCCE_malloc for
   on-chip (MPB) placement, as decided by the Stage 4 partitioner.
   Allocation statements are inserted at the top of main; pre-existing
   malloc calls for the same variable are removed (Algorithm 3, lines
   8-10).  Non-trivial lost initializers are re-emitted as stores executed
   by core 0 only.

   Shared *locals* are left alone by default, matching the paper's own
   example output; with [sound_locals] scalar ones are hoisted into shared
   globals as well (see DESIGN.md). *)

type plan_entry = {
  name : string;
  elt_ty : Ctype.t;             (* element (pointee) type *)
  count : int;                  (* number of elements to allocate *)
  scalar : bool;                (* uses must be rewritten to  *v  *)
  alloc_fn : string;            (* RCCE_shmalloc or RCCE_malloc *)
  init_stores : Ast.stmt list;  (* re-emitted initializer, if any *)
}

let alloc_fn_of_placement = function
  | Partition.Partitioner.On_chip -> "RCCE_malloc"
  | Partition.Partitioner.Off_chip -> "RCCE_shmalloc"
  | Partition.Partitioner.Split _ ->
      (* source-level splitting of one C array is not expressible without
         changing its indexing; the translator places split arrays off
         chip (the workloads' staged MPB processing covers the split use
         case at run time) *)
      "RCCE_shmalloc"

let placement_for env id =
  match Partition.Partitioner.placement_of (Pass.partition env) id with
  | Some p -> p
  | None -> Partition.Partitioner.Off_chip

(* "v = (T *) ALLOC(sizeof(T) * n);" *)
let alloc_stmt entry =
  let size =
    Ast.Binary (Ast.Mul, Ast.Sizeof_type entry.elt_ty, Ast.int entry.count)
  in
  let call = Ast.call entry.alloc_fn [ size ] in
  let cast = Ast.Cast (Ctype.Ptr entry.elt_ty, call) in
  Ast.stmt (Ast.Sexpr (Ast.assign (Ast.var entry.name) cast))

let is_zero_expr = function
  | Ast.Int_lit 0 -> true
  | Ast.Float_lit f -> f = 0.0
  | Ast.Int_lit _ | Ast.Str_lit _ | Ast.Char_lit _ | Ast.Var _
  | Ast.Unary _ | Ast.Binary _ | Ast.Assign _ | Ast.Cond _ | Ast.Call _
  | Ast.Index _ | Ast.Cast _ | Ast.Sizeof_type _ | Ast.Sizeof_expr _
  | Ast.Comma _ -> false

(* Stores reconstructing a dropped initializer, executed by core 0 only:
   every process runs main, but shared memory must be written once. *)
let guarded_by_core0 = function
  | [] -> []
  | stmts ->
      let guard =
        Ast.Binary (Ast.Eq, Ast.var Thread_to_process.core_id_var, Ast.int 0)
      in
      [ Ast.stmt (Ast.Sif (guard, Ast.stmt (Ast.Sblock stmts), None)) ]

let init_stores_of ~name ~scalar (init : Ast.init option) =
  match init with
  | None -> []
  | Some (Ast.Init_expr e) when is_zero_expr e -> []
  | Some (Ast.Init_expr e) ->
      let lhs =
        if scalar then Ast.Unary (Ast.Deref, Ast.var name) else Ast.var name
      in
      guarded_by_core0 [ Ast.stmt (Ast.Sexpr (Ast.assign lhs e)) ]
  | Some (Ast.Init_list es) when List.for_all is_zero_expr es -> []
  | Some (Ast.Init_list es) ->
      let store i e =
        Ast.stmt (Ast.Sexpr (Ast.assign (Ast.Index (Ast.var name, Ast.int i)) e))
      in
      guarded_by_core0 (List.mapi store es)

let plan_of_global env (d : Ast.decl) =
  let id = Ir.Var_id.global d.Ast.d_name in
  if not (Analysis.Pipeline.is_shared (Pass.analysis env) id) then None
  else
    let alloc_fn = alloc_fn_of_placement (placement_for env id) in
    match d.Ast.d_type with
    | Ctype.Array (elt, len) ->
        let count = match len with Some n -> n | None -> 1 in
        Some
          { name = d.Ast.d_name; elt_ty = elt; count; scalar = false;
            alloc_fn;
            init_stores =
              init_stores_of ~name:d.Ast.d_name ~scalar:false d.Ast.d_init }
    | Ctype.Ptr pointee ->
        Some
          { name = d.Ast.d_name; elt_ty = pointee; count = 1; scalar = false;
            alloc_fn; init_stores = [] }
    | Ctype.Void | Ctype.Char | Ctype.Short | Ctype.Int | Ctype.Long
    | Ctype.Unsigned _ | Ctype.Float | Ctype.Double | Ctype.Named _ ->
        Some
          { name = d.Ast.d_name; elt_ty = d.Ast.d_type; count = 1;
            scalar = true; alloc_fn;
            init_stores =
              init_stores_of ~name:d.Ast.d_name ~scalar:true d.Ast.d_init }
    | Ctype.Func _ -> None

(* Uses of scalar-shared names become  *name ; [&*name] collapses back. *)
let deref_rewriter names e =
  match e with
  | Ast.Var name when List.mem name names ->
      Ast.Unary (Ast.Deref, Ast.var name)
  | Ast.Unary (Ast.Addr, Ast.Unary (Ast.Deref, inner)) -> inner
  | _ -> e

(* Remove pre-existing [v = malloc(...)] statements for planned variables
   (Algorithm 3: "if previous malloc call B for s exists, remove B"). *)
let remove_prior_mallocs names program =
  let is_malloc = function
    | Ast.Call (("malloc" | "calloc"), _)
    | Ast.Cast (_, Ast.Call (("malloc" | "calloc"), _)) -> true
    | _ -> false
  in
  Visit.rewrite_program
    (fun s ->
      match s.Ast.s_desc with
      | Ast.Sexpr (Ast.Assign (None, Ast.Var v, rhs))
        when List.mem v names && is_malloc rhs -> Some []
      | Ast.Sexpr _ | Ast.Sdecl _ | Ast.Sblock _ | Ast.Sif _ | Ast.Swhile _
      | Ast.Sdo _ | Ast.Sfor _ | Ast.Sreturn _ | Ast.Sbreak | Ast.Scontinue
      | Ast.Snull -> None)
    program

let map_main f (program : Ast.program) =
  let globals =
    List.map
      (fun g ->
        match g with
        | Ast.Gfunc fn when String.equal fn.Ast.f_name "main" ->
            Ast.Gfunc { fn with Ast.f_body = f fn.Ast.f_body }
        | Ast.Gfunc _ | Ast.Gvar _ | Ast.Gproto _ -> g)
      program.Ast.p_globals
  in
  { program with Ast.p_globals = globals }

let prepend_to_main stmts program = map_main (fun body -> stmts @ body) program

(* Re-emitted initializer stores read [myID], so they must land after
   the [int myID; myID = RCCE_ue();] prologue thread-to-process put at
   the top of main — at the very top they would use the variable before
   its declaration.  (The allocations themselves read no locals and stay
   above the prologue, in the paper's Example 4.2 order.) *)
let core_id_prologue (s : Ast.stmt) =
  match s.Ast.s_desc with
  | Ast.Sdecl ds ->
      List.exists
        (fun d ->
          String.equal d.Ast.d_name Thread_to_process.core_id_var
          || String.equal d.Ast.d_name Thread_to_process.task_var)
        ds
  | Ast.Sexpr (Ast.Assign (_, Ast.Var v, _)) ->
      String.equal v Thread_to_process.core_id_var
  | _ -> false

let insert_after_prologue stmts program =
  if stmts = [] then program
  else
    let rec place = function
      | s :: rest when core_id_prologue s -> s :: place rest
      | body -> stmts @ body
    in
    map_main place program

(* --- shared locals (sound_locals option) -------------------------------- *)

(* Hoist a scalar shared local into a shared global pointer: the
   declaration becomes a store through the pointer, uses become  *v . *)
let hoist_one_local env program (info : Analysis.Varinfo.t) =
  let id = info.Analysis.Varinfo.id in
  let name = id.Ir.Var_id.name in
  let elt_ty = info.Analysis.Varinfo.ty in
  match elt_ty with
  | Ctype.Array _ | Ctype.Ptr _ | Ctype.Func _ ->
      Pass.note env
        "shared-rewrite: shared local '%s' left in place (non-scalar \
         hoisting unsupported)" name;
      program
  | Ctype.Void | Ctype.Char | Ctype.Short | Ctype.Int | Ctype.Long
  | Ctype.Unsigned _ | Ctype.Float | Ctype.Double | Ctype.Named _ ->
      Pass.note env "shared-rewrite: hoisted shared local '%s'" name;
      let alloc_fn = alloc_fn_of_placement (placement_for env id) in
      let entry =
        { name; elt_ty; count = 1; scalar = true; alloc_fn; init_stores = [] }
      in
      (* uses become  *name  first (the name is becoming a global
         pointer); the synthesized store below must not be rewritten
         again *)
      let program =
        Visit.map_program_exprs (deref_rewriter [ name ]) program
      in
      (* then the declaration becomes a store through the pointer *)
      let program =
        Visit.rewrite_program
          (fun s ->
            match s.Ast.s_desc with
            | Ast.Sdecl ds
              when List.exists
                     (fun (d : Ast.decl) -> String.equal d.Ast.d_name name)
                     ds ->
                let lower (d : Ast.decl) =
                  if String.equal d.Ast.d_name name then
                    match d.Ast.d_init with
                    | Some (Ast.Init_expr e) ->
                        [ Ast.stmt ~loc:s.Ast.s_loc
                            (Ast.Sexpr
                               (Ast.assign
                                  (Ast.Unary (Ast.Deref, Ast.var name)) e)) ]
                    | Some (Ast.Init_list _) | None -> []
                  else [ { s with Ast.s_desc = Ast.Sdecl [ d ] } ]
                in
                Some (List.concat_map lower ds)
            | Ast.Sdecl _ | Ast.Sexpr _ | Ast.Sblock _ | Ast.Sif _
            | Ast.Swhile _ | Ast.Sdo _ | Ast.Sfor _ | Ast.Sreturn _
            | Ast.Sbreak | Ast.Scontinue | Ast.Snull -> None)
          program
      in
      let gdecl = Ast.Gvar (Ast.decl name (Ctype.Ptr elt_ty)) in
      let program =
        { program with Ast.p_globals = gdecl :: program.Ast.p_globals }
      in
      prepend_to_main [ alloc_stmt entry ] program

let hoist_shared_locals env program =
  let shared_locals =
    List.filter
      (fun (info : Analysis.Varinfo.t) ->
        match info.Analysis.Varinfo.id.Ir.Var_id.scope with
        | Ir.Var_id.Local _ -> true
        | Ir.Var_id.Global | Ir.Var_id.Param _ -> false)
      (Analysis.Pipeline.shared_variables (Pass.analysis env))
  in
  List.fold_left (hoist_one_local env) program shared_locals

(* --- the pass ----------------------------------------------------------- *)

let transform env (program : Ast.program) =
  let plans =
    List.filter_map
      (fun g ->
        match g with
        | Ast.Gvar d -> plan_of_global env d
        | Ast.Gfunc _ | Ast.Gproto _ -> None)
      program.Ast.p_globals
  in
  let names = List.map (fun p -> p.name) plans in
  let scalar_names =
    List.filter_map (fun p -> if p.scalar then Some p.name else None) plans
  in
  (* shared globals that were arrays or scalars become pointers *)
  let retype (d : Ast.decl) =
    match List.find_opt (fun p -> String.equal p.name d.Ast.d_name) plans with
    | None -> d
    | Some p -> { d with Ast.d_type = Ctype.Ptr p.elt_ty; d_init = None }
  in
  let globals =
    List.map
      (fun g ->
        match g with
        | Ast.Gvar d -> Ast.Gvar (retype d)
        | Ast.Gfunc fn when scalar_names <> [] ->
            Ast.Gfunc (Visit.map_func_exprs (deref_rewriter scalar_names) fn)
        | Ast.Gfunc _ | Ast.Gproto _ -> g)
      program.Ast.p_globals
  in
  let program = { program with Ast.p_globals = globals } in
  let program = remove_prior_mallocs names program in
  let allocs = List.map alloc_stmt plans in
  let inits = List.concat_map (fun p -> p.init_stores) plans in
  List.iter
    (fun p ->
      Pass.note env "shared-rewrite: '%s' -> %s(%d x %s)" p.name p.alloc_fn
        p.count (Ctype.to_string p.elt_ty))
    plans;
  (* inits first, while the prologue is still at the head of main *)
  let program = insert_after_prologue inits program in
  let program = prepend_to_main allocs program in
  if (Pass.options env).Pass.sound_locals then hoist_shared_locals env program
  else program

let pass =
  { Pass.name = "shared-rewrite"; transform; forbids_after = [];
    must_follow = [ "threads-to-processes" ] }

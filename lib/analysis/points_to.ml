open Cfront

(* Stage 3: interprocedural points-to analysis.

   A dataflow analysis in the style the paper attributes to Cetus: pointer
   relationships are extracted from assignments (including through function
   calls), propagated over each function's CFG to a fixed point, and merged
   into a whole-program relationship map from pointer to pointed-at symbol.
   Relations are [Definite] when they hold on every path reaching a point
   and [Possible] otherwise (typically after if-else merges).

   Interprocedural flow: pointer-typed parameters receive the targets of
   the corresponding call arguments ([pthread_create]'s 4th argument flows
   into the thread function's parameter); pointer-returning functions get a
   return summary.  The whole thing iterates until the parameter/return
   summaries stabilize. *)

type definiteness = Definite | Possible

type target = Tvar of Ir.Var_id.t | Tnull | Tunknown

let target_compare = Stdlib.compare

module Target_map = Map.Make (struct
  type t = target
  let compare = target_compare
end)

type targets = definiteness Target_map.t

let weakest a b =
  match a, b with Definite, Definite -> Definite | _, _ -> Possible

(* Union where a binding missing on one side degrades to Possible: the
   other path may leave the pointer pointing elsewhere. *)
let join_targets (a : targets) (b : targets) : targets =
  Target_map.merge
    (fun _ da db ->
      match da, db with
      | Some da, Some db -> Some (weakest da db)
      | Some _, None | None, Some _ -> Some Possible
      | None, None -> None)
    a b

(* Accumulation for the whole-program relationship map (and for
   parameter/return summaries fed from several sites): a pointer with a
   single known target keeps the strongest definiteness seen, but as soon
   as two distinct targets accumulate every relation degrades to Possible
   — the paper's "possibly, often after analyzing pointers within an
   if-else statement". *)
let accum_targets (a : targets) (b : targets) : targets =
  let union =
    Target_map.union (fun _ da db ->
        Some (match da, db with Definite, _ | _, Definite -> Definite
                              | Possible, Possible -> Possible))
      a b
  in
  if Target_map.cardinal union > 1 then
    Target_map.map (fun _ -> Possible) union
  else union

let weaken (t : targets) : targets = Target_map.map (fun _ -> Possible) t

type state = Unreached | Reached of targets Ir.Var_id.Map.t

let state_equal a b =
  match a, b with
  | Unreached, Unreached -> true
  | Reached a, Reached b -> Ir.Var_id.Map.equal (Target_map.equal ( = )) a b
  | Unreached, Reached _ | Reached _, Unreached -> false

let state_join a b =
  match a, b with
  | Unreached, s | s, Unreached -> s
  | Reached a, Reached b ->
      Reached
        (Ir.Var_id.Map.merge
           (fun _ ta tb ->
             match ta, tb with
             | Some ta, Some tb -> Some (join_targets ta tb)
             | Some t, None | None, Some t -> Some (weaken t)
             | None, None -> None)
           a b)

module Flow = Ir.Dataflow.Forward (struct
  type t = state
  let bottom = Unreached
  let equal = state_equal
  let join = state_join
end)

(* --- analysis context --------------------------------------------------- *)

type t = {
  symtab : Ir.Symtab.t;
  relationships : targets Ir.Var_id.Map.t;
      (* whole-program pointer -> targets summary *)
}

type summaries = {
  mutable params : targets Ir.Var_id.Map.t;  (* per pointer-typed param *)
  mutable returns : (string, targets) Hashtbl.t;
}

let is_pointer_var symtab id =
  match Ir.Symtab.type_of symtab id with
  | Some ty -> Ctype.is_pointer ty
  | None -> false

(* Base variable of an l-value, if any. *)
let rec lvalue_base symtab ~func e =
  match e with
  | Ast.Var name -> Ir.Symtab.resolve_id symtab ?func name
  | Ast.Index (arr, _) -> lvalue_base symtab ~func arr
  | Ast.Cast (_, e) -> lvalue_base symtab ~func e
  | Ast.Unary _ | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _
  | Ast.Char_lit _ | Ast.Binary _ | Ast.Assign _ | Ast.Cond _ | Ast.Call _
  | Ast.Sizeof_type _ | Ast.Sizeof_expr _ | Ast.Comma _ -> None

let lookup_state env id : targets =
  match Ir.Var_id.Map.find_opt id env with
  | Some ts -> ts
  | None -> Target_map.singleton Tunknown Possible

(* Targets of an r-value expression under [env]. *)
let rec eval ctx ~func env e : targets =
  let symtab = ctx.symtab in
  match e with
  | Ast.Unary (Ast.Addr, lv) -> begin
      match lvalue_base symtab ~func lv with
      | Some base -> Target_map.singleton (Tvar base) Definite
      | None -> Target_map.singleton Tunknown Possible
    end
  | Ast.Var "NULL" | Ast.Int_lit 0 -> Target_map.singleton Tnull Definite
  | Ast.Var name -> begin
      match Ir.Symtab.resolve_id symtab ?func name with
      | Some id when is_pointer_var symtab id -> begin
          match Ir.Symtab.type_of symtab id with
          | Some (Ctype.Array _) ->
              (* an array r-value decays to its own storage *)
              Target_map.singleton (Tvar id) Definite
          | Some _ | None -> lookup_state env id
        end
      | Some _ | None -> Target_map.singleton Tunknown Possible
    end
  | Ast.Cast (_, e) -> eval ctx ~func env e
  | Ast.Cond (_, a, b) ->
      join_targets (eval ctx ~func env a) (eval ctx ~func env b)
  | Ast.Comma (_, b) -> eval ctx ~func env b
  | Ast.Binary ((Ast.Add | Ast.Sub), a, _) when pointer_expr ctx ~func a ->
      (* pointer arithmetic keeps pointing into the same object *)
      eval ctx ~func env a
  | Ast.Assign (_, _, rhs) -> eval ctx ~func env rhs
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
  | Ast.Unary _ | Ast.Binary _ | Ast.Call _ | Ast.Index _
  | Ast.Sizeof_type _ | Ast.Sizeof_expr _ ->
      Target_map.singleton Tunknown Possible

and pointer_expr ctx ~func e =
  match e with
  | Ast.Var name -> begin
      match Ir.Symtab.resolve_id ctx.symtab ?func name with
      | Some id -> is_pointer_var ctx.symtab id
      | None -> false
    end
  | Ast.Cast (ty, _) -> Ctype.is_pointer ty
  | Ast.Unary (Ast.Addr, _) -> true
  | _ -> false

(* Evaluate with function-call awareness: calls use the return summary. *)
let eval_rhs ctx ~func ~sums env e : targets =
  match e with
  | Ast.Call (name, _) -> begin
      match Hashtbl.find_opt sums.returns name with
      | Some ts -> ts
      | None -> Target_map.singleton Tunknown Possible
    end
  | _ -> eval ctx ~func env e

(* --- transfer function -------------------------------------------------- *)

let bind_param sums id (ts : targets) =
  let before =
    match Ir.Var_id.Map.find_opt id sums.params with
    | Some t -> t
    | None -> Target_map.empty
  in
  let after = accum_targets before ts in
  if not (Target_map.equal ( = ) before after) then
    sums.params <- Ir.Var_id.Map.add id after sums.params

(* Record argument->parameter flow at a call site. *)
let bind_call_args ctx ~func ~sums env name args =
  let program = Ir.Symtab.program ctx.symtab in
  match name, args with
  | "pthread_create", [ _; _; farg; targ ] -> begin
      match Thread_analysis.func_name_of_arg farg with
      | Some tf_name -> begin
          match Ast.find_function program tf_name with
          | Some fn -> begin
              match fn.Ast.f_params with
              | [ (pname, pty) ] when Ctype.is_pointer pty ->
                  let id = Ir.Var_id.param ~func:tf_name pname in
                  bind_param sums id (eval ctx ~func env targ)
              | _ -> ()
            end
          | None -> ()
        end
      | None -> ()
    end
  | _, args -> begin
      match Ast.find_function program name with
      | None -> ()
      | Some fn ->
          let rec pair params args =
            match params, args with
            | (pname, pty) :: params', arg :: args' ->
                if Ctype.is_pointer pty then begin
                  let id = Ir.Var_id.param ~func:name pname in
                  bind_param sums id (eval ctx ~func env arg)
                end;
                pair params' args'
            | _, _ -> ()
          in
          pair fn.Ast.f_params args
    end

let transfer_assign ctx ~func ~sums env lhs rhs =
  let symtab = ctx.symtab in
  match lhs with
  | Ast.Var name -> begin
      match Ir.Symtab.resolve_id symtab ?func name with
      | Some id when is_pointer_var symtab id ->
          (* strong update *)
          Ir.Var_id.Map.add id (eval_rhs ctx ~func ~sums env rhs) env
      | Some _ | None -> env
    end
  | Ast.Unary (Ast.Deref, p) ->
      (* weak update of every pointer-typed target of p *)
      let p_targets = eval ctx ~func env p in
      let rhs_targets = weaken (eval_rhs ctx ~func ~sums env rhs) in
      Target_map.fold
        (fun tgt _ env ->
          match tgt with
          | Tvar id when is_pointer_var symtab id ->
              let merged = accum_targets (lookup_state env id) rhs_targets in
              Ir.Var_id.Map.add id merged env
          | Tvar _ | Tnull | Tunknown -> env)
        p_targets env
  | Ast.Index _ | Ast.Cast _ | Ast.Int_lit _ | Ast.Float_lit _
  | Ast.Str_lit _ | Ast.Char_lit _ | Ast.Unary _ | Ast.Binary _
  | Ast.Assign _ | Ast.Cond _ | Ast.Call _ | Ast.Sizeof_type _
  | Ast.Sizeof_expr _ | Ast.Comma _ -> env

let transfer_expr ctx ~func ~sums env e =
  let env = ref env in
  Visit.iter_expr
    (fun e ->
      match e with
      | Ast.Assign (None, lhs, rhs) ->
          env := transfer_assign ctx ~func ~sums !env lhs rhs
      | Ast.Call (name, args) ->
          bind_call_args ctx ~func ~sums !env name args
      | _ -> ())
    e;
  !env

let transfer_decl ctx ~func ~sums env (d : Ast.decl) =
  match d.Ast.d_init with
  | Some (Ast.Init_expr e) when Ctype.is_pointer d.Ast.d_type ->
      let env = transfer_expr ctx ~func ~sums env e in
      let id =
        match func with
        | Some f -> Ir.Var_id.local ~func:f d.Ast.d_name
        | None -> Ir.Var_id.global d.Ast.d_name
      in
      Ir.Var_id.Map.add id (eval_rhs ctx ~func ~sums env e) env
  | Some (Ast.Init_expr e) -> transfer_expr ctx ~func ~sums env e
  | Some (Ast.Init_list es) ->
      List.fold_left (fun env e -> transfer_expr ctx ~func ~sums env e) env es
  | None -> env

let transfer_node ctx ~func ~sums (node : Ir.Cfg.node) state =
  match state with
  | Unreached -> Unreached
  | Reached env ->
      let env =
        match node.Ir.Cfg.kind with
        | Ir.Cfg.Entry | Ir.Cfg.Exit | Ir.Cfg.Join -> env
        | Ir.Cfg.Condition e -> transfer_expr ctx ~func ~sums env e
        | Ir.Cfg.Statement s -> begin
            match s.Ast.s_desc with
            | Ast.Sexpr e -> transfer_expr ctx ~func ~sums env e
            | Ast.Sdecl ds ->
                List.fold_left
                  (fun env d -> transfer_decl ctx ~func ~sums env d)
                  env ds
            | Ast.Sreturn (Some e) -> begin
                let env = transfer_expr ctx ~func ~sums env e in
                (* record the return summary *)
                (match func with
                | Some fname ->
                    let ts = eval_rhs ctx ~func ~sums env e in
                    let before =
                      match Hashtbl.find_opt sums.returns fname with
                      | Some t -> t
                      | None -> Target_map.empty
                    in
                    Hashtbl.replace sums.returns fname
                      (accum_targets before ts)
                | None -> ());
                env
              end
            | Ast.Sreturn None | Ast.Snull | Ast.Sblock _ | Ast.Sif _
            | Ast.Swhile _ | Ast.Sdo _ | Ast.Sfor _ | Ast.Sbreak
            | Ast.Scontinue -> env
          end
      in
      Reached env

(* --- whole-program fixed point ------------------------------------------ *)

let global_init_env ctx =
  let program = Ir.Symtab.program ctx.symtab in
  List.fold_left
    (fun env (d : Ast.decl) ->
      match d.Ast.d_init with
      | Some (Ast.Init_expr e) when Ctype.is_pointer d.Ast.d_type ->
          Ir.Var_id.Map.add
            (Ir.Var_id.global d.Ast.d_name)
            (eval ctx ~func:None env e)
            env
      | Some _ | None -> env)
    Ir.Var_id.Map.empty (Ast.global_decls program)

let run symtab cfgs =
  let ctx = { symtab; relationships = Ir.Var_id.Map.empty } in
  let sums = { params = Ir.Var_id.Map.empty; returns = Hashtbl.create 8 } in
  let base_env = global_init_env ctx in
  let summary = ref Ir.Var_id.Map.empty in
  let stable = ref false in
  let rounds = ref 0 in
  (* Iterate per-function solves until parameter/return summaries and the
     accumulated relationship map stop changing.  The lattice is finite
     (variables x targets), so this terminates. *)
  while (not !stable) && !rounds < 20 do
    incr rounds;
    let before_params = sums.params in
    let before_returns = Hashtbl.copy sums.returns in
    let acc = ref Ir.Var_id.Map.empty in
    let accumulate env =
      Ir.Var_id.Map.iter
        (fun id ts ->
          let before =
            match Ir.Var_id.Map.find_opt id !acc with
            | Some t -> t
            | None -> Target_map.empty
          in
          acc := Ir.Var_id.Map.add id (accum_targets before ts) !acc)
        env
    in
    accumulate base_env;
    List.iter
      (fun (_, (cfg : Ir.Cfg.t)) ->
        let fn = cfg.Ir.Cfg.func in
        let func = Some fn.Ast.f_name in
        (* seed parameters from the call-site summaries *)
        let entry_env =
          List.fold_left
            (fun env (pname, pty) ->
              if Ctype.is_pointer pty then
                let id = Ir.Var_id.param ~func:fn.Ast.f_name pname in
                match Ir.Var_id.Map.find_opt id sums.params with
                | Some ts -> Ir.Var_id.Map.add id ts env
                | None -> env
              else env)
            base_env fn.Ast.f_params
        in
        let result =
          Flow.solve cfg ~init:(Reached entry_env)
            ~transfer:(transfer_node ctx ~func ~sums)
        in
        Array.iter
          (fun state ->
            match state with
            | Unreached -> ()
            | Reached env -> accumulate env)
          result.Flow.out_facts)
      cfgs;
    let params_stable =
      Ir.Var_id.Map.equal (Target_map.equal ( = )) before_params sums.params
    in
    let returns_stable =
      Hashtbl.length before_returns = Hashtbl.length sums.returns
      && Hashtbl.fold
           (fun k v ok ->
             ok
             && match Hashtbl.find_opt before_returns k with
                | Some v' -> Target_map.equal ( = ) v v'
                | None -> false)
           sums.returns true
    in
    let summary_stable =
      Ir.Var_id.Map.equal (Target_map.equal ( = )) !summary !acc
    in
    summary := !acc;
    stable := params_stable && returns_stable && summary_stable
  done;
  { symtab; relationships = !summary }

(* --- queries ------------------------------------------------------------ *)

let relationships t =
  Ir.Var_id.Map.fold
    (fun ptr ts acc ->
      Target_map.fold
        (fun tgt d acc -> (ptr, tgt, d) :: acc)
        ts acc)
    t.relationships []
  |> List.rev

let targets_of t ptr =
  match Ir.Var_id.Map.find_opt ptr t.relationships with
  | Some ts -> Target_map.bindings ts
  | None -> []

let definite_var_targets t ptr =
  List.filter_map
    (fun (tgt, d) ->
      match tgt, d with
      | Tvar id, Definite -> Some id
      | (Tvar _ | Tnull | Tunknown), (Definite | Possible) -> None)
    (targets_of t ptr)

(* Algorithm 2: propagate Shared status through definite relationships,
   iterating because a shared pointer may point at another pointer. *)
let refine_sharing (scope : Scope_analysis.t) t =
  let changed = ref true in
  while !changed do
    changed := false;
    Ir.Var_id.Map.iter
      (fun ptr ts ->
        match Scope_analysis.find scope ptr with
        | Some info
          when Sharing.status info.Varinfo.sharing = Sharing.Shared ->
            Target_map.iter
              (fun tgt d ->
                match tgt with
                | Tvar pointee when d = Definite -> begin
                    match Scope_analysis.find scope pointee with
                    | Some pinfo
                      when Sharing.status pinfo.Varinfo.sharing
                           <> Sharing.Shared ->
                        Sharing.refine pinfo.Varinfo.sharing Sharing.Shared;
                        changed := true
                    | Some _ | None -> ()
                  end
                | Tvar _ | Tnull | Tunknown -> ())
              ts
        | Some _ | None -> ())
      t.relationships
  done

(* Stage-3 post-processing: globals that are defined but entirely unused
   may be set private (the paper's example variable [global]). *)
let demote_unused_globals (scope : Scope_analysis.t) =
  List.iter
    (fun id ->
      let info = Scope_analysis.get scope id in
      if Varinfo.is_unused info then
        Sharing.refine info.Varinfo.sharing Sharing.Private)
    scope.Scope_analysis.global_vars

let target_to_string = function
  | Tvar id -> Ir.Var_id.to_string id
  | Tnull -> "NULL"
  | Tunknown -> "<unknown>"

let definiteness_to_string = function
  | Definite -> "definite"
  | Possible -> "possibly"

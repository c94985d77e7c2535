open Cfront

(* Forward must-hold-locks dataflow over a function's CFG.

   The fact at a program point is the set of mutexes held on *every* path
   reaching it, so the merge at a join is set intersection and the
   unreached state is "all locks" (the top of the must lattice).
   [pthread_mutex_lock(&m)] adds [m]; [pthread_mutex_unlock(&m)] removes
   it; the RCCE test-and-set pair [RCCE_acquire_lock(n)] /
   [RCCE_release_lock(n)] with a statically-known lock number behaves the
   same through a synthetic per-number variable, so the detector also
   covers already-translated programs.

   The analysis is intraprocedural: a call to an unknown function is
   assumed to preserve the lockset, which matches the translator's C
   subset where mutex operations are always direct calls. *)

type fact = All | Held of Ir.Var_id.Set.t

let fact_equal a b =
  match a, b with
  | All, All -> true
  | Held a, Held b -> Ir.Var_id.Set.equal a b
  | All, Held _ | Held _, All -> false

let fact_join a b =
  match a, b with
  | All, f | f, All -> f
  | Held a, Held b -> Held (Ir.Var_id.Set.inter a b)

module Flow = Ir.Dataflow.Forward (struct
  type t = fact
  let bottom = All
  let equal = fact_equal
  let join = fact_join
end)

type t = { cfg : Ir.Cfg.t; result : Flow.result }

(* The mutex behind [&m] / [m] / [mutexes[i]] — the base variable. *)
let rec mutex_of_arg symtab ~func e =
  match e with
  | Ast.Unary (Ast.Addr, e) | Ast.Cast (_, e) -> mutex_of_arg symtab ~func e
  | Ast.Var name -> Ir.Symtab.resolve_id symtab ?func name
  | Ast.Index (arr, _) -> mutex_of_arg symtab ~func arr
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
  | Ast.Unary _ | Ast.Binary _ | Ast.Assign _ | Ast.Cond _ | Ast.Call _
  | Ast.Sizeof_type _ | Ast.Sizeof_expr _ | Ast.Comma _ -> None

(* RCCE locks are numbered, not named; a statically-known number gets a
   synthetic global so it can live in the same lockset as mutexes. *)
let rcce_lock_var e =
  match e with
  | Ast.Int_lit n -> Some (Ir.Var_id.global (Printf.sprintf "<rcce-lock-%d>" n))
  | _ -> None

let transfer symtab ~func (node : Ir.Cfg.node) fact =
  match fact with
  | All -> All
  | Held held ->
      let held = ref held in
      List.iter
        (Visit.iter_expr (fun e ->
             match e with
             | Ast.Call ("pthread_mutex_lock", [ m ]) -> begin
                 match mutex_of_arg symtab ~func m with
                 | Some id -> held := Ir.Var_id.Set.add id !held
                 | None -> ()
               end
             | Ast.Call ("pthread_mutex_unlock", [ m ]) -> begin
                 match mutex_of_arg symtab ~func m with
                 | Some id -> held := Ir.Var_id.Set.remove id !held
                 | None ->
                     (* unlock of an unresolvable mutex: drop everything,
                        staying a must-approximation *)
                     held := Ir.Var_id.Set.empty
               end
             | Ast.Call ("RCCE_acquire_lock", [ n ]) -> begin
                 match rcce_lock_var n with
                 | Some id -> held := Ir.Var_id.Set.add id !held
                 | None -> ()
               end
             | Ast.Call ("RCCE_release_lock", [ n ]) -> begin
                 match rcce_lock_var n with
                 | Some id -> held := Ir.Var_id.Set.remove id !held
                 | None -> held := Ir.Var_id.Set.empty
               end
             | _ -> ()))
        (Ir.Cfg.exprs_of_node node);
      Held !held

let analyze symtab (cfg : Ir.Cfg.t) =
  let func = Some cfg.Ir.Cfg.func.Ast.f_name in
  let result =
    Flow.solve cfg ~init:(Held Ir.Var_id.Set.empty)
      ~transfer:(transfer symtab ~func)
  in
  { cfg; result }

let cfg t = t.cfg

(* Locks held on every path *before* the node executes.  An access inside
   the statement that also performs the lock call conservatively uses the
   pre-statement set. *)
let held_before t id =
  match t.result.Flow.in_facts.(id) with
  | All -> Ir.Var_id.Set.empty   (* unreachable node: nothing to protect *)
  | Held s -> s

let held_after t id =
  match t.result.Flow.out_facts.(id) with
  | All -> Ir.Var_id.Set.empty
  | Held s -> s

open Cfront

(* Stage 2: inter-thread analysis.

   Discovers every [pthread_create] site, whether it sits inside a loop and
   with which statically-known trip count, and classifies each variable by
   the paper's Algorithm 1: in multiple threads / in a single thread / not
   in a thread.  The stage-2 sharing refinement then marks every non-global
   variable Private (globals stay Shared), reproducing the third column of
   Table 4.2. *)

type presence = Not_in_thread | In_single_thread | In_multiple_threads

type site = {
  thread_func : string;       (* 3rd argument of pthread_create *)
  creator : string;           (* function containing the call *)
  in_loop : bool;
  loop_trip : int option;     (* trip count when the loop is for(v=0;v<N;v++) *)
  arg : Ast.expr option;      (* 4th argument, None when NULL *)
  arg_is_thread_id : bool;    (* argument is the create-loop counter *)
  call_loc : Srcloc.t;
}

type t = {
  sites : site list;
  thread_funcs : string list;   (* distinct, source order *)
  presence : presence Ir.Var_id.Map.t;
}

let presence_to_string = function
  | Not_in_thread -> "Not in Thread"
  | In_single_thread -> "In Single Thread"
  | In_multiple_threads -> "In Multiple Threads"

(* The function name passed as pthread_create's 3rd argument may appear as
   a bare identifier or behind casts/address-of. *)
let rec func_name_of_arg = function
  | Ast.Var name -> Some name
  | Ast.Cast (_, e) | Ast.Unary (Ast.Addr, e) -> func_name_of_arg e
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
  | Ast.Unary _ | Ast.Binary _ | Ast.Assign _ | Ast.Cond _ | Ast.Call _
  | Ast.Index _ | Ast.Sizeof_type _ | Ast.Sizeof_expr _ | Ast.Comma _ ->
      None

let is_null_arg = function
  | Ast.Var "NULL" | Ast.Int_lit 0 -> true
  | Ast.Cast (_, Ast.Var "NULL") | Ast.Cast (_, Ast.Int_lit 0) -> true
  | _ -> false

(* Trip count of [for (v = 0; v < n; v++)] / [v <= n] shapes. *)
let loop_bounds (s : Ast.stmt) =
  match s.Ast.s_desc with
  | Ast.Sfor (init, Some cond, _, _) -> begin
      let counter_of_init = function
        | Ast.For_expr (Ast.Assign (None, Ast.Var v, Ast.Int_lit 0)) -> Some v
        | Ast.For_decl [ { Ast.d_name; d_init = Some (Ast.Init_expr (Ast.Int_lit 0)); _ } ] ->
            Some d_name
        | _ -> None
      in
      match counter_of_init init, cond with
      | Some v, Ast.Binary (Ast.Lt, Ast.Var v', Ast.Int_lit n) when v = v' ->
          Some (v, n)
      | Some v, Ast.Binary (Ast.Le, Ast.Var v', Ast.Int_lit n) when v = v' ->
          Some (v, n + 1)
      | _, (Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
           | Ast.Var _ | Ast.Unary _ | Ast.Binary _ | Ast.Assign _
           | Ast.Cond _ | Ast.Call _ | Ast.Index _ | Ast.Cast _
           | Ast.Sizeof_type _ | Ast.Sizeof_expr _ | Ast.Comma _) ->
          None
    end
  | Ast.Sfor (_, None, _, _) | Ast.Sexpr _ | Ast.Sdecl _ | Ast.Sblock _
  | Ast.Sif _ | Ast.Swhile _ | Ast.Sdo _ | Ast.Sreturn _ | Ast.Sbreak
  | Ast.Scontinue | Ast.Snull -> None

let expr_mentions name e =
  Visit.fold_expr
    (fun acc e ->
      acc || match e with Ast.Var n -> String.equal n name | _ -> false)
    false e

(* Walk a function body tracking the enclosing-loop context to find every
   pthread_create call. *)
let sites_of_func (fn : Ast.func) =
  let sites = ref [] in
  let record ~loop args loc =
    match args with
    | [ _tid; _attr; func_arg; thread_arg ] -> begin
        match func_name_of_arg func_arg with
        | None -> ()
        | Some thread_func ->
            let arg =
              if is_null_arg thread_arg then None else Some thread_arg
            in
            let in_loop = loop <> None in
            let loop_trip = Option.map snd loop in
            let arg_is_thread_id =
              match arg, loop with
              | Some a, Some (counter, _) -> expr_mentions counter a
              | _, _ -> false
            in
            sites :=
              { thread_func; creator = fn.Ast.f_name; in_loop; loop_trip;
                arg; arg_is_thread_id; call_loc = loc }
              :: !sites
      end
    | _ -> ()
  in
  let scan_exprs ~loop (s : Ast.stmt) =
    List.iter
      (Visit.iter_expr (fun e ->
           match e with
           | Ast.Call ("pthread_create", args) ->
               record ~loop args s.Ast.s_loc
           | _ -> ()))
      (Visit.shallow_exprs s)
  in
  let rec walk ~loop (s : Ast.stmt) =
    scan_exprs ~loop s;
    match s.Ast.s_desc with
    | Ast.Sblock stmts -> List.iter (walk ~loop) stmts
    | Ast.Sif (_, a, b) ->
        walk ~loop a;
        Option.iter (walk ~loop) b
    | Ast.Swhile (_, body) | Ast.Sdo (body, _) ->
        walk ~loop:(Some ("", -1)) body
    | Ast.Sfor (_, _, _, body) ->
        let bounds =
          match loop_bounds s with
          | Some (v, n) -> Some (v, n)
          | None -> Some ("", -1)
        in
        walk ~loop:bounds body
    | Ast.Sexpr _ | Ast.Sdecl _ | Ast.Sreturn _ | Ast.Sbreak
    | Ast.Scontinue | Ast.Snull -> ()
  in
  List.iter (walk ~loop:None) fn.Ast.f_body;
  List.rev !sites

let dedup_keep_order items =
  List.fold_left
    (fun acc x -> if List.mem x acc then acc else acc @ [ x ])
    [] items

(* Algorithm 1 for one variable: how many threads is it in? *)
let presence_of ~sites ~thread_funcs (scope : Scope_analysis.t)
    (id : Ir.Var_id.t) =
  let info = Scope_analysis.get scope id in
  let appearing_in =
    match Ir.Var_id.scope_function id with
    | Some f -> [ f ]
    | None ->
        dedup_keep_order (info.Varinfo.use_in @ info.Varinfo.def_in)
  in
  let in_thread_funcs =
    List.filter (fun f -> List.mem f thread_funcs) appearing_in
  in
  if in_thread_funcs = [] then Not_in_thread
  else
    let launched_many proc =
      let launches =
        List.filter (fun s -> String.equal s.thread_func proc) sites
      in
      List.exists (fun s -> s.in_loop) launches || List.length launches > 1
    in
    if List.length in_thread_funcs > 1 || List.exists launched_many in_thread_funcs
    then In_multiple_threads
    else In_single_thread

let sites program = List.concat_map sites_of_func (Ast.functions program)

let run (scope : Scope_analysis.t) =
  let sites = sites (Ir.Symtab.program scope.Scope_analysis.symtab) in
  let thread_funcs =
    dedup_keep_order (List.map (fun s -> s.thread_func) sites)
  in
  let presence =
    List.fold_left
      (fun acc id ->
        Ir.Var_id.Map.add id
          (presence_of ~sites ~thread_funcs scope id)
          acc)
      Ir.Var_id.Map.empty scope.Scope_analysis.all_vars
  in
  { sites; thread_funcs; presence }

let presence t id =
  match Ir.Var_id.Map.find_opt id t.presence with
  | Some p -> p
  | None -> Not_in_thread

let is_thread_func t name = List.mem name t.thread_funcs

(* Total number of threads created, when statically known. *)
let static_thread_count t =
  let site_count s =
    match s.in_loop, s.loop_trip with
    | false, _ -> Some 1
    | true, Some n when n > 0 -> Some n
    | true, (Some _ | None) -> None
  in
  List.fold_left
    (fun acc s ->
      match acc, site_count s with
      | Some a, Some b -> Some (a + b)
      | _, _ -> None)
    (Some 0) t.sites

(* Stage-2 sharing refinement: non-globals become Private; globals keep the
   Shared status assigned in Stage 1 (Table 4.2, third column). *)
let refine_sharing (scope : Scope_analysis.t) (_t : t) =
  List.iter
    (fun id ->
      let info = Scope_analysis.get scope id in
      Sharing.refine info.Varinfo.sharing Sharing.Private)
    scope.Scope_analysis.local_vars

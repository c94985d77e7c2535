open Cfront

(* Static lockset-based data-race detection, layered on the facts Stages
   1-3 already compute.

   The detector walks every function reachable from a concurrency root —
   each pthread thread function, each creator (a function containing a
   [pthread_create] site), and [RCCE_APP] for already-translated SPMD
   programs — and collects every read and write of a variable the sharing
   lattice marked Shared, including accesses through pointers using the
   Stage-3 may-alias information.  Each access carries the lockset the
   {!Lockheld} must-analysis proves held at that point.  Two accesses
   race when they come from contexts that can overlap, at least one is a
   write, and their must-held locksets are disjoint (the RacerX /
   thread-modular recipe of Engler & Ashcraft and Miné).

   Approximations, chosen to match the dynamic Eraser detector's own:
   - accesses in a creator are ordered before the threads it creates
     until the first [pthread_create] statement, and ordered after them
     once a [pthread_join] statement has been passed (the join-all
     pattern); everything between is concurrent;
   - arrays are one location: disjoint per-element index expressions are
     not proved disjoint, so chunked writes to a shared array report a
     race the dynamic detector (which sees per-address accesses) does
     not — a may-level over-approximation, never a missed race;
   - barriers do not order accesses statically. *)

type ctx =
  | Creator of string   (* runs pthread_create; a single instance *)
  | Thread of string    (* a pthread thread function *)
  | Spmd of string      (* RCCE_APP: every core runs it *)

let ctx_func = function Creator f | Thread f | Spmd f -> f

let ctx_to_string = function
  | Creator f -> Printf.sprintf "'%s'" f
  | Thread f -> Printf.sprintf "thread '%s'" f
  | Spmd f -> Printf.sprintf "SPMD function '%s'" f

type access = {
  var : Ir.Var_id.t;
  write : bool;
  ctx : ctx;
  multi : bool;             (* the context has concurrent instances *)
  in_func : string;         (* function containing the access *)
  loc : Srcloc.t;
  locks : Ir.Var_id.Set.t;  (* must-held at the access *)
  via : Ir.Var_id.t option; (* pointer the access went through, if any *)
}

type race = {
  rvar : Ir.Var_id.t;
  writer : access;          (* always a write *)
  other : access;           (* the conflicting access (may be the same
                               source access when the context has
                               multiple instances) *)
}

type t = {
  accesses : access list;   (* every concurrent shared access considered *)
  races : race list;        (* one per racy variable, deterministic order *)
}

(* --- shared-variable candidates ------------------------------------------ *)

let sync_type_names =
  [ "pthread_t"; "pthread_attr_t"; "pthread_mutex_t"; "pthread_mutexattr_t";
    "pthread_cond_t"; "pthread_barrier_t"; "pthread_barrierattr_t";
    "RCCE_FLAG"; "RCCE_COMM" ]

let rec is_sync_type = function
  | Ctype.Named n -> List.mem n sync_type_names
  | Ctype.Array (t, _) | Ctype.Ptr t -> is_sync_type t
  | Ctype.Void | Ctype.Char | Ctype.Short | Ctype.Int | Ctype.Long
  | Ctype.Unsigned _ | Ctype.Float | Ctype.Double | Ctype.Func _ -> false

let is_candidate pipeline symtab id =
  Pipeline.is_shared pipeline id
  && (match Ir.Symtab.type_of symtab id with
     | Some ty -> not (is_sync_type ty)
     | None -> true)
  (* the synthetic <rcce-lock-n> variables are locks, not data *)
  && not (String.length id.Ir.Var_id.name > 0 && id.Ir.Var_id.name.[0] = '<')

(* --- access collection ---------------------------------------------------- *)

(* A raw access, before context attribution. *)
type raw = {
  r_var : Ir.Var_id.t;
  r_write : bool;
  r_stmt : Ast.stmt option;   (* enclosing statement, when known *)
  r_loc : Srcloc.t;
  r_locks : Ir.Var_id.Set.t;
  r_via : Ir.Var_id.t option;
}

type wstate = {
  symtab : Ir.Symtab.t;
  points_to : Points_to.t;
  func : string option;
  emit : write:bool -> via:Ir.Var_id.t option -> Ir.Var_id.t -> unit;
}

let resolve st name = Ir.Symtab.resolve_id st.symtab ?func:st.func name

(* Base variable of a pointer-valued expression ([p], [&a[i]], [p + 1]). *)
let rec pointer_base st e =
  match e with
  | Ast.Var name -> resolve st name
  | Ast.Cast (_, e) | Ast.Unary (Ast.Addr, e) -> pointer_base st e
  | Ast.Index (a, _) -> pointer_base st a
  | Ast.Binary ((Ast.Add | Ast.Sub), a, _) -> pointer_base st a
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
  | Ast.Unary _ | Ast.Binary _ | Ast.Assign _ | Ast.Cond _ | Ast.Call _
  | Ast.Sizeof_type _ | Ast.Sizeof_expr _ | Ast.Comma _ -> None

let is_plain_pointer st id =
  match Ir.Symtab.type_of st.symtab id with
  | Some (Ctype.Ptr _) -> true
  | Some _ | None -> false

(* Every may-target of the pointer behind [p]: the Stage-3 alias set,
   Possible relations included (a may-analysis must not drop them). *)
let emit_targets st ~write p =
  match pointer_base st p with
  | None -> ()
  | Some pid ->
      List.iter
        (fun (tgt, _d) ->
          match tgt with
          | Points_to.Tvar v -> st.emit ~write ~via:(Some pid) v
          | Points_to.Tnull | Points_to.Tunknown -> ())
        (Points_to.targets_of st.points_to pid)

(* Mirror of {!Access.visit} with pointer dereferences resolved through
   the points-to map instead of stopping at the pointer itself. *)
let rec visit_expr st e =
  match e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
  | Ast.Sizeof_type _ -> ()
  | Ast.Var name -> Option.iter (st.emit ~write:false ~via:None) (resolve st name)
  | Ast.Unary ((Ast.Preinc | Ast.Predec | Ast.Postinc | Ast.Postdec), lhs) ->
      visit_lvalue st ~also_read:true lhs
  | Ast.Unary (Ast.Deref, p) ->
      visit_expr st p;
      emit_targets st ~write:false p
  | Ast.Unary ((Ast.Addr | Ast.Neg | Ast.Not | Ast.Bnot), e) -> visit_expr st e
  | Ast.Binary (_, a, b) | Ast.Comma (a, b) ->
      visit_expr st a;
      visit_expr st b
  | Ast.Assign (op, lhs, rhs) ->
      visit_lvalue st ~also_read:(op <> None) lhs;
      visit_expr st rhs
  | Ast.Cond (a, b, c) ->
      visit_expr st a;
      visit_expr st b;
      visit_expr st c
  | Ast.Call (_, args) -> List.iter (visit_expr st) args
  | Ast.Index (arr, idx) ->
      visit_expr st idx;
      read_indexed st arr
  | Ast.Cast (_, e) | Ast.Sizeof_expr e -> visit_expr st e

(* [a[i]] as an r-value: a read of the array, or of the pointees when the
   base is a plain pointer. *)
and read_indexed st arr =
  match pointer_base st arr with
  | Some id when is_plain_pointer st id ->
      st.emit ~write:false ~via:None id;
      emit_targets st ~write:false arr
  | Some id -> st.emit ~write:false ~via:None id
  | None -> visit_expr st arr

and visit_lvalue st ~also_read e =
  let emit_both emit1 =
    emit1 ~write:true;
    if also_read then emit1 ~write:false
  in
  match e with
  | Ast.Var name ->
      Option.iter
        (fun id -> emit_both (fun ~write -> st.emit ~write ~via:None id))
        (resolve st name)
  | Ast.Index (arr, idx) -> begin
      visit_expr st idx;
      match pointer_base st arr with
      | Some id when is_plain_pointer st id ->
          st.emit ~write:false ~via:None id;
          emit_both (fun ~write -> emit_targets st ~write arr)
      | Some id -> emit_both (fun ~write -> st.emit ~write ~via:None id)
      | None -> visit_expr st arr
    end
  | Ast.Unary (Ast.Deref, p) ->
      visit_expr st p;
      emit_both (fun ~write -> emit_targets st ~write p)
  | Ast.Cast (_, e) -> visit_lvalue st ~also_read e
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
  | Ast.Unary _ | Ast.Binary _ | Ast.Assign _ | Ast.Cond _ | Ast.Call _
  | Ast.Sizeof_type _ | Ast.Sizeof_expr _ | Ast.Comma _ -> visit_expr st e

(* Raw accesses of one function, with the must-held lockset of its
   dataflow solution [lh] attached. *)
let accesses_of_func ~symtab ~points_to lh (fn : Ast.func) =
  let cfg = Lockheld.cfg lh in
  let expr_stmt = Visit.expr_stmts fn in
  let acc = ref [] in
  for id = 0 to Ir.Cfg.length cfg - 1 do
    let node = Ir.Cfg.node cfg id in
    let stmt =
      match node.Ir.Cfg.kind with
      | Ir.Cfg.Statement s -> Some s
      | Ir.Cfg.Condition e -> List.assq_opt e expr_stmt
      | Ir.Cfg.Entry | Ir.Cfg.Exit | Ir.Cfg.Join -> None
    in
    match node.Ir.Cfg.kind with
    | Ir.Cfg.Entry | Ir.Cfg.Exit | Ir.Cfg.Join -> ()
    | Ir.Cfg.Condition _ | Ir.Cfg.Statement _ ->
        let locks = Lockheld.held_before lh id in
        let default_loc =
          match stmt with Some s -> s.Ast.s_loc | None -> fn.Ast.f_loc
        in
        let emit_at loc ~write ~via var =
          acc :=
            { r_var = var; r_write = write; r_stmt = stmt; r_loc = loc;
              r_locks = locks; r_via = via }
            :: !acc
        in
        let st =
          { symtab; points_to; func = Some fn.Ast.f_name;
            emit = emit_at default_loc }
        in
        List.iter (visit_expr st) (Ir.Cfg.exprs_of_node node);
        (* a declaration with an initializer writes the declared variable
           (the shallow expressions above only covered the reads) *)
        (match node.Ir.Cfg.kind with
        | Ir.Cfg.Statement { Ast.s_desc = Ast.Sdecl ds; _ } ->
            List.iter
              (fun (d : Ast.decl) ->
                if d.Ast.d_init <> None then
                  Option.iter
                    (emit_at d.Ast.d_loc ~write:true ~via:None)
                    (Ir.Symtab.resolve_id symtab ~func:fn.Ast.f_name
                       d.Ast.d_name))
              ds
        | _ -> ())
  done;
  List.rev !acc

(* --- creator happens-before phases ---------------------------------------- *)

(* Statement-order phase of each statement in a creator: [Before] until
   the first [pthread_create], [Parallel] while threads may run, [After]
   once a [pthread_join] statement has been passed (and no later create
   reopens the window).  The same join-all approximation the dynamic
   detector's [synchronize] uses. *)
type phase = Before | Parallel | After

let stmt_phases (fn : Ast.func) =
  let tbl = ref [] in
  let phase = ref Before in
  let calls name (s : Ast.stmt) =
    List.exists
      (Visit.fold_expr
         (fun found e ->
           found
           || match e with Ast.Call (n, _) -> String.equal n name | _ -> false)
         false)
      (Visit.shallow_exprs s)
  in
  let rec walk (s : Ast.stmt) =
    tbl := (s, !phase) :: !tbl;
    match s.Ast.s_desc with
    | Ast.Sblock ss -> List.iter walk ss
    | Ast.Sif (_, a, b) ->
        walk a;
        Option.iter walk b
    | Ast.Swhile (_, body) | Ast.Sdo (body, _) | Ast.Sfor (_, _, _, body) ->
        walk body
    | Ast.Sexpr _ | Ast.Sdecl _ | Ast.Sreturn _ | Ast.Sbreak
    | Ast.Scontinue | Ast.Snull ->
        if calls "pthread_create" s then phase := Parallel
        else if calls "pthread_join" s && !phase = Parallel then
          phase := After
  in
  List.iter walk fn.Ast.f_body;
  !tbl

(* --- whole-program detection ---------------------------------------------- *)

let dedup_keep_order items =
  List.fold_left
    (fun acc x -> if List.mem x acc then acc else acc @ [ x ])
    [] items

(* Functions reachable from [root] through direct calls (thread functions
   are reached through their own root, not through [pthread_create]'s
   function-pointer argument, which is not a call expression). *)
let reachable program root =
  let rec go acc name =
    if List.mem name acc then acc
    else
      match Ast.find_function program name with
      | None -> acc
      | Some fn ->
          List.fold_left
            (fun acc (callee, _, _) -> go acc callee)
            (acc @ [ name ])
            (Visit.calls_in_func fn)
  in
  go [] root

let run ~locksets (pipeline : Pipeline.t) =
  let scope = pipeline.Pipeline.scope in
  let symtab = scope.Scope_analysis.symtab in
  let program = Ir.Symtab.program symtab in
  let threads = pipeline.Pipeline.threads in
  let points_to = pipeline.Pipeline.points_to in
  let sites = threads.Thread_analysis.sites in
  let multi_of f =
    let launches =
      List.filter
        (fun (s : Thread_analysis.site) -> String.equal s.thread_func f)
        sites
    in
    List.length launches > 1
    || List.exists (fun (s : Thread_analysis.site) -> s.in_loop) launches
  in
  let roots =
    List.map (fun f -> (Thread f, multi_of f))
      threads.Thread_analysis.thread_funcs
    @ List.map
        (fun c -> (Creator c, false))
        (dedup_keep_order
           (List.map (fun (s : Thread_analysis.site) -> s.creator) sites))
    @ (match Ast.find_function program "RCCE_APP" with
      | Some _ -> [ (Spmd "RCCE_APP", true) ]
      | None -> [])
  in
  let raw_cache = Hashtbl.create 16 in
  let raws_of fn_name fn =
    match Hashtbl.find_opt raw_cache fn_name with
    | Some raws -> raws
    | None ->
        let lh = List.assoc fn_name locksets in
        let raws = accesses_of_func ~symtab ~points_to lh fn in
        Hashtbl.replace raw_cache fn_name raws;
        raws
  in
  let accesses =
    List.concat_map
      (fun (ctx, multi) ->
        List.concat_map
          (fun fn_name ->
            match Ast.find_function program fn_name with
            | None -> []
            | Some fn ->
                let phases =
                  match ctx with
                  | Creator c when String.equal c fn_name ->
                      Some (stmt_phases fn)
                  | Creator _ | Thread _ | Spmd _ -> None
                in
                List.filter_map
                  (fun r ->
                    if not (is_candidate pipeline symtab r.r_var) then None
                    else
                      let concurrent =
                        match phases, r.r_stmt with
                        | Some tbl, Some s -> begin
                            match List.assq_opt s tbl with
                            | Some Parallel -> true
                            | Some (Before | After) -> false
                            | None -> true
                          end
                        | Some _, None | None, _ -> true
                      in
                      if not concurrent then None
                      else
                        Some
                          { var = r.r_var; write = r.r_write; ctx; multi;
                            in_func = fn_name; loc = r.r_loc;
                            locks = r.r_locks; via = r.r_via })
                  (raws_of fn_name fn))
          (reachable program (ctx_func ctx)))
      roots
  in
  (* Two accesses conflict when their contexts can overlap and no lock is
     common to both must-held sets.  An access conflicts with itself when
     its context has multiple concurrent instances. *)
  let conflicting w o =
    (w != o || w.multi)
    && (w.ctx <> o.ctx || w.multi)
    && Ir.Var_id.Set.is_empty (Ir.Var_id.Set.inter w.locks o.locks)
  in
  let by_var =
    List.fold_left
      (fun m a ->
        let existing =
          match Ir.Var_id.Map.find_opt a.var m with
          | Some l -> l
          | None -> []
        in
        Ir.Var_id.Map.add a.var (a :: existing) m)
      Ir.Var_id.Map.empty accesses
  in
  let races =
    Ir.Var_id.Map.fold
      (fun var accs acc ->
        let accs = List.rev accs in    (* back to collection order *)
        let writes = List.filter (fun a -> a.write) accs in
        let pair =
          List.find_map
            (fun w ->
              List.find_map
                (fun o -> if conflicting w o then Some (w, o) else None)
                accs)
            writes
        in
        match pair with
        | Some (w, o) -> { rvar = var; writer = w; other = o } :: acc
        | None -> acc)
      by_var []
  in
  let races =
    List.sort
      (fun a b -> Ir.Var_id.compare a.rvar b.rvar)
      races
  in
  { accesses; races }

(* --- reporting ------------------------------------------------------------ *)

let var_display id =
  if Ir.Var_id.is_global id then id.Ir.Var_id.name
  else Ir.Var_id.to_string id

let locks_to_string locks =
  if Ir.Var_id.Set.is_empty locks then "no locks held"
  else
    Printf.sprintf "holding {%s}"
      (String.concat ", "
         (List.map
            (fun l -> l.Ir.Var_id.name)
            (Ir.Var_id.Set.elements locks)))

let access_to_string a =
  Printf.sprintf "%s in %s (%s)%s"
    (if a.write then "write" else "read")
    (ctx_to_string a.ctx)
    (locks_to_string a.locks)
    (match a.via with
    | Some p -> Printf.sprintf " through pointer '%s'" p.Ir.Var_id.name
    | None -> "")

let to_diag r =
  let instances =
    if r.writer == r.other && r.writer.multi then
      " by concurrent instances of the same thread"
    else ""
  in
  Diag.warning ~loc:r.writer.loc ~code:"race"
    ~related:
      [ Diag.related_note ~loc:r.other.loc
          (Printf.sprintf "conflicting %s of '%s'%s"
             (access_to_string r.other) (var_display r.rvar) instances) ]
    (Printf.sprintf "data race on '%s': %s with disjoint lockset"
       (var_display r.rvar) (access_to_string r.writer))

let to_diags t = List.map to_diag t.races

let racy_variables t = List.map (fun r -> r.rvar) t.races

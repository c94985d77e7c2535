open Cfront

(* MPB software caching of hot read-only shared data.

   Uncached shared DRAM costs a full memory-controller round trip on
   every access while the on-die MPB SRAM answers in a few mesh hops, so
   shared data that is written only during the entry function's init
   prefix and read throughout the parallel phase is better served from
   an MPB slice.  For every candidate the session's locality plan
   selected (read-only multi-element scalar array, hot by access-count
   estimate, capacity-checked against the MPB slices), this pass emits
   at the plan's insertion point — after the whole init prefix, before
   the first call into a worker:

     v__mpb = RCCE_malloc(sizeof(T) * n), cast;   every core, collective
     for (i = myID; i < n; i += nues) v__mpb[i] = v[i];
     RCCE_barrier(&RCCE_COMM_WORLD);              publish the fill

   The fill is striped across the cores — each copies elements myID,
   myID + nues, ... of the DRAM original into the cache — because a
   single-core fill serializes n expensive uncached reads while every
   other core waits at the barrier, which on low-reuse kernels costs
   more than the caching saves.

   and redirects every read [v[e]] in the parallel phase (all functions
   but the entry, plus entry statements at or after the insertion point)
   to [v__mpb[e]].  The collective RCCE_malloc is unguarded: every core
   must make the identical call sequence, and the k-th call of the run
   is served from the MPB slice of core k mod ncores — the same striping
   the plan's capacity dry-run replayed. *)

(* the cache pointer of [v] is [v__mpb] *)
let mpb_suffix = "__mpb"
let fill_index_var = "__mpb_i"
let fill_nues_var = "__mpb_nues"

let mpb_name v = v ^ mpb_suffix

let barrier_stmt =
  Ast.stmt
    (Ast.Sexpr
       (Ast.call "RCCE_barrier" [ Ast.Unary (Ast.Addr, Ast.var "RCCE_COMM_WORLD") ]))

(* v__mpb = [cast to pointer-to-T] RCCE_malloc(sizeof(T) * n); *)
let alloc_stmt (c : Opt.Opt_plan.mpb_candidate) =
  let size =
    Ast.Binary (Ast.Mul, Ast.Sizeof_type c.Opt.Opt_plan.mc_elt,
                Ast.int c.Opt.Opt_plan.mc_count)
  in
  Ast.stmt
    (Ast.Sexpr
       (Ast.assign
          (Ast.var (mpb_name c.Opt.Opt_plan.mc_name))
          (Ast.Cast (Ctype.Ptr c.Opt.Opt_plan.mc_elt,
                     Ast.call "RCCE_malloc" [ size ]))))

(* for (i = myID; i < n; i = i + nues) v__mpb[i] = v[i]; *)
let fill_stmt (c : Opt.Opt_plan.mpb_candidate) =
  let v = c.Opt.Opt_plan.mc_name in
  let idx = Ast.var fill_index_var in
  let body =
    Ast.stmt
      (Ast.Sexpr
         (Ast.assign
            (Ast.Index (Ast.var (mpb_name v), idx))
            (Ast.Index (Ast.var v, idx))))
  in
  Ast.stmt
    (Ast.Sfor
       ( Ast.For_expr
           (Ast.assign idx (Ast.var Thread_to_process.core_id_var)),
         Some (Ast.Binary (Ast.Lt, idx, Ast.int c.Opt.Opt_plan.mc_count)),
         Some (Ast.assign idx (Ast.Binary (Ast.Add, idx, Ast.var fill_nues_var))),
         Ast.stmt (Ast.Sblock [ body ]) ))

let redirect names e =
  match e with
  | Ast.Index (Ast.Var v, i) when List.mem v names ->
      Ast.Index (Ast.var (mpb_name v), i)
  | e -> e

let has_core_id_prologue body =
  List.exists
    (fun (s : Ast.stmt) ->
      match s.Ast.s_desc with
      | Ast.Sdecl ds ->
          List.exists
            (fun (d : Ast.decl) ->
              String.equal d.Ast.d_name Thread_to_process.core_id_var)
            ds
      | _ -> false)
    body

let transform env (program : Ast.program) =
  let plan = Session.opt_plan (Pass.session env) in
  let entry = plan.Opt.Opt_plan.entry in
  let entry_fn = Ast.find_function program entry in
  match (plan.Opt.Opt_plan.insert_at, plan.Opt.Opt_plan.mpb, entry_fn) with
  | None, _, _ | _, [], _ | _, _, None ->
      List.iter
        (fun (name, why) -> Pass.note env "opt-mpb-cache: '%s' skipped: %s" name why)
        plan.Opt.Opt_plan.rejected;
      if plan.Opt.Opt_plan.mpb = [] then
        Pass.note env "opt-mpb-cache: no eligible shared data";
      program
  | Some p, candidates, Some fn when has_core_id_prologue fn.Ast.f_body ->
      let names = List.map (fun c -> c.Opt.Opt_plan.mc_name) candidates in
      (* one index variable serves every fill loop *)
      let prologue =
        Ast.stmt (Ast.Sdecl [ Ast.decl fill_index_var Ctype.Int ])
        :: Ast.stmt
             (Ast.Sdecl
                [ Ast.decl
                    ~init:(Ast.Init_expr (Ast.call "RCCE_num_ues" []))
                    fill_nues_var Ctype.Int ])
        :: List.concat_map
             (fun c -> [ alloc_stmt c; fill_stmt c ])
             candidates
        @ [ barrier_stmt ]
      in
      (* redirect the parallel phase first, then splice the prologue at
         the insertion point (the fill loops must keep reading the DRAM
         copy) *)
      let rewrite_entry_body body =
        List.mapi
          (fun i s ->
            if i >= p then Visit.map_stmt_exprs (redirect names) s else s)
          body
      in
      let splice body =
        let rec go i = function
          | rest when i = p -> prologue @ rest
          | [] -> prologue
          | s :: rest -> s :: go (i + 1) rest
        in
        go 0 body
      in
      let globals =
        List.concat_map
          (fun g ->
            match g with
            | Ast.Gvar d when List.mem d.Ast.d_name names ->
                (* the cache pointer lives right next to the pointer it
                   shadows *)
                let c =
                  List.find
                    (fun c ->
                      String.equal c.Opt.Opt_plan.mc_name d.Ast.d_name)
                    candidates
                in
                [ g;
                  Ast.Gvar
                    (Ast.decl (mpb_name d.Ast.d_name)
                       (Ctype.Ptr c.Opt.Opt_plan.mc_elt)) ]
            | Ast.Gfunc f when not (String.equal f.Ast.f_name entry) ->
                [ Ast.Gfunc (Visit.map_func_exprs (redirect names) f) ]
            | Ast.Gfunc f when String.equal f.Ast.f_name entry ->
                [ Ast.Gfunc
                    { f with
                      Ast.f_body = splice (rewrite_entry_body f.Ast.f_body) } ]
            | Ast.Gvar _ | Ast.Gfunc _ | Ast.Gproto _ -> [ g ])
          program.Ast.p_globals
      in
      List.iter
        (fun c ->
          Pass.note env
            "opt-mpb-cache: '%s' cached in MPB slice of core %d (%d bytes, \
             ~%d reads)"
            c.Opt.Opt_plan.mc_name c.Opt.Opt_plan.mc_owner
            c.Opt.Opt_plan.mc_bytes c.Opt.Opt_plan.mc_reads)
        candidates;
      List.iter
        (fun (name, why) ->
          Pass.note env "opt-mpb-cache: '%s' skipped: %s" name why)
        plan.Opt.Opt_plan.rejected;
      { program with Ast.p_globals = globals }
  | Some _, _, Some _ ->
      Pass.note env
        "opt-mpb-cache: entry has no core-id prologue, nothing cached";
      program

let pass =
  { Pass.name = "opt-mpb-cache"; transform; forbids_after = [];
    must_follow = [ "shared-rewrite"; "add-rcce" ] }

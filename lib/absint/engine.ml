open Cfront

(* Thread-modular abstract interpretation engine.

   Locals are flow-sensitive: per-node environments computed by the
   widening dataflow solver with branch refinement.  Globals live in a
   flow-insensitive store G that only grows: a cell holds the join of
   every value any thread may ever store there, seeded from static
   initializers.  That store *is* the interference environment of Miné's
   thread-modular scheme collapsed to its flow-insensitive core: each
   round re-analyzes every reachable function against the current G, calls
   join argument values into per-function contexts, and spawned thread
   entries against the join of their create-site arguments, until nothing
   grows.  Joins into G, contexts and summaries switch to widening after a
   few rounds so the chaotic iteration terminates.  A final collection
   pass over the stabilized state emits one proof obligation per memory
   access. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)
module VMap = Ir.Var_id.Map
module VSet = Ir.Var_id.Set

let widen_round = 4
let max_rounds = 64

type config = {
  mode : Oblig.mode;
  ncores : int;
  interference : bool;
      (* [false]: the naive sequential lifting (each thread analyzed
         against a snapshot of G, writes discarded) — unsound on purpose,
         kept as the strawman for the soundness tests *)
}

type cell = Cvar of Ir.Var_id.t | Cmem of Ir.Var_id.t

module CMap = Map.Make (struct
  type t = cell

  let compare a b =
    match (a, b) with
    | Cvar x, Cvar y | Cmem x, Cmem y -> Ir.Var_id.compare x y
    | Cvar _, Cmem _ -> -1
    | Cmem _, Cvar _ -> 1
end)

(* A spawn site: the create statement's location and the thread
   function, in line and column order. *)
module Site = Map.Make (struct
  type t = Srcloc.t * string

  let compare ((a : Srcloc.t), f) ((b : Srcloc.t), g) =
    compare (a.line, a.col, a.file, f) (b.line, b.col, b.file, g)
end)

type iextent = Emain | Ethread of string * Itv.t | Emixed

type st = {
  conf : config;
  symtab : Ir.Symtab.t;
  program : Ast.program;
  entry : string;
  fn_cfgs : (string * Ir.Cfg.t) list;
  cfgs : (string, Ir.Cfg.t * (Ast.expr * Ast.stmt) list) Hashtbl.t;
  blocks : (Ir.Var_id.t, int option) Hashtbl.t;
  allocs : (Ir.Var_id.t, string) Hashtbl.t;
  obligs : (string * int * int * string, Oblig.t) Hashtbl.t;
  mutable g : Aval.t CMap.t;
  mutable ctx : Aval.t list SMap.t;
  mutable spawned : Aval.t SMap.t;
  mutable summaries : Aval.t SMap.t;
  mutable spawn_sites : Itv.t Site.t;
  mutable gaccess : iextent VMap.t;
  mutable addr_taken : VSet.t;
  mutable direct_called : SSet.t;
  mutable changed : bool;
  mutable widen_now : bool;
  mutable collect : bool;
  mutable rounds : int;
  mutable cur_func : string;
  mutable cur_loc : Srcloc.t;
  mutable ret_acc : Aval.t;
}

(* ---- store and merge helpers ------------------------------------- *)

let vmerge st old v =
  let j = Aval.join old v in
  if st.widen_now then Aval.widen old j else j

let dmerge st old v =
  let j = Itv.join old v in
  if st.widen_now then Itv.widen old j else j

let g_read st cell =
  match CMap.find_opt cell st.g with Some v -> v | None -> Aval.top

let g_join st cell v =
  let old =
    match CMap.find_opt cell st.g with Some v -> v | None -> Aval.bottom
  in
  let nv = vmerge st old v in
  if not (Aval.equal old nv) then begin
    st.g <- CMap.add cell nv st.g;
    st.changed <- true
  end

let resolve st name =
  let f = st.cur_func in
  if f = "" then Ir.Symtab.resolve st.symtab name
  else Ir.Symtab.resolve st.symtab ~func:f name

let is_array_entry (e : Ir.Symtab.entry) =
  match e.ty with Ctype.Array _ -> true | _ -> false

let is_local st (id : Ir.Var_id.t) =
  Ir.Var_id.scope_function id = Some st.cur_func

(* Canonical content cell of a block: arrays and heap allocations have a
   content cell distinct from the variable's own value; an address-taken
   scalar's content is the variable itself. *)
let cell_of_block st (id : Ir.Var_id.t) =
  if Hashtbl.mem st.allocs id then Cmem id
  else
    match Ir.Symtab.type_of st.symtab id with
    | Some (Ctype.Array _) -> Cmem id
    | _ -> Cvar id

let register_block st (e : Ir.Symtab.entry) =
  if not (Hashtbl.mem st.blocks e.id) then
    Hashtbl.replace st.blocks e.id
      (match e.ty with
      | Ctype.Array (_, Some n) -> Some n
      | Ctype.Array (_, None) -> None
      | t -> Some (Ctype.element_count t))

let register_alloc st (e : Ir.Symtab.entry) fn count =
  if not (Hashtbl.mem st.allocs e.id) then begin
    (* the block named by [e.id] changes identity here: it is no longer
       the pointer variable's own cell (1 element, recorded at its
       declaration) but the heap region it points to, so the alloc's
       count replaces whatever the declaration registered *)
    Hashtbl.replace st.allocs e.id fn;
    Hashtbl.replace st.blocks e.id count;
    st.changed <- true
  end
  else begin
    (* several alloc sites feed one pointer: keep the smallest extent *)
    let old = try Hashtbl.find st.blocks e.id with Not_found -> None in
    let nv =
      match (old, count) with
      | Some a, Some b -> Some (min a b)
      | None, c | c, None -> c
    in
    if old <> nv then begin
      Hashtbl.replace st.blocks e.id nv;
      st.changed <- true
    end
  end

(* ---- thread extents (sharing-lattice feedback) -------------------- *)

let extent_at st env =
  if st.conf.mode <> Oblig.Pthread then Emixed
  else if st.cur_func = st.entry then Emain
  else
    match SMap.find_opt st.cur_func st.spawned with
    | None -> Emixed
    | Some spawn -> begin
        match env with
        | Aval.Bot -> Ethread (st.cur_func, Itv.bottom)
        | Aval.Env m ->
            let ext =
              VMap.fold
                (fun _ (v : Aval.t) acc ->
                  if v.tid then Itv.meet acc v.num else acc)
                m spawn.num
            in
            Ethread (st.cur_func, ext)
      end

let extent_join a b =
  match (a, b) with
  | Ethread (f1, i1), Ethread (f2, i2) when f1 = f2 ->
      Ethread (f1, Itv.join i1 i2)
  | Emain, Emain -> Emain
  | _ -> Emixed

let record_gaccess st env (id : Ir.Var_id.t) =
  if st.collect && Ir.Var_id.is_global id then begin
    let ext = extent_at st env in
    let joined =
      match VMap.find_opt id st.gaccess with
      | None -> ext
      | Some old -> extent_join old ext
    in
    st.gaccess <- VMap.add id joined st.gaccess
  end

(* ---- proof obligations -------------------------------------------- *)

let blk_count st id =
  match Hashtbl.find_opt st.blocks id with Some c -> c | None -> None

let record_oblig st ~kind ~path (base : Aval.t) (idx : Itv.t) =
  if st.collect then begin
    let mk status blocks alloc bound =
      let o =
        { Oblig.o_func = st.cur_func; o_loc = st.cur_loc; o_path = path;
          o_kind = kind; o_blocks = blocks; o_alloc = alloc;
          o_index = Itv.to_string idx; o_bound = bound; o_status = status }
      in
      Hashtbl.replace st.obligs
        (st.cur_func, st.cur_loc.Srcloc.line, st.cur_loc.Srcloc.col, path)
        o
    in
    match base.ptr with
    | Aval.Pbot when Itv.is_bottom (Itv.filter_nonzero base.num) -> ()
    | Aval.Pbot | Aval.Ptop ->
        (* no block: an unknown base, or an address made from a number
           that may be nonzero (a null or unreached base raises none) *)
        mk (Oblig.Unproved "base address unknown") [] None None
    | Aval.Pblocks bs when VSet.is_empty bs -> ()
    | Aval.Pblocks bs ->
        let ids = VSet.elements bs in
        let names = List.map (fun id -> id.Ir.Var_id.name) ids in
        let alloc =
          if List.exists
               (fun id -> Hashtbl.find_opt st.allocs id
                          = Some "RCCE_shmalloc") ids
          then Some "RCCE_shmalloc"
          else
            List.find_map (fun id -> Hashtbl.find_opt st.allocs id) ids
        in
        let counts = List.map (blk_count st) ids in
        if List.exists (fun c -> c = None) counts then
          mk (Oblig.Unproved "block extent unknown") names alloc None
        else
          let bound =
            List.fold_left
              (fun acc c -> match c with Some n -> min acc n | None -> acc)
              max_int counts
          in
          let status =
            if Itv.contained_in idx ~lo:0 ~hi:(bound - 1) then Oblig.Proved
            else if Itv.disjoint_from idx ~lo:0 ~hi:(bound - 1) then
              Oblig.Out_of_bounds
            else
              Oblig.Unproved
                (Printf.sprintf "index %s may leave [0,%d]"
                   (Itv.to_string idx) (bound - 1))
          in
          mk status names alloc (Some bound)
  end

(* ---- known library functions -------------------------------------- *)

let alloc_fns = [ "RCCE_shmalloc"; "RCCE_malloc"; "malloc" ]

let noop_fns =
  SSet.of_list
    [ "pthread_mutex_init"; "pthread_mutex_lock"; "pthread_mutex_unlock";
      "pthread_mutex_destroy"; "pthread_join"; "pthread_exit";
      "pthread_barrier_init"; "pthread_barrier_wait";
      "pthread_barrier_destroy"; "RCCE_init"; "RCCE_finalize";
      "RCCE_barrier"; "RCCE_acquire_lock"; "RCCE_release_lock";
      "RCCE_shfree"; "free"; "exit" ]

let print_fns = SSet.of_list [ "printf"; "fprintf"; "puts"; "putchar" ]

(* ---- expression evaluation ---------------------------------------- *)

let rec eval st (env : Aval.env) (e : Ast.expr) : Aval.t * Aval.env =
  match e with
  | Ast.Int_lit n -> (Aval.of_num (Itv.const n), env)
  | Ast.Char_lit c -> (Aval.of_num (Itv.const (Char.code c)), env)
  | Ast.Float_lit _ -> (Aval.of_num Itv.top, env)
  | Ast.Str_lit _ -> (Aval.top, env)
  | Ast.Var x -> (read_var st env x, env)
  | Ast.Cast (_, e1) -> eval st env e1
  | Ast.Sizeof_type t -> (Aval.of_num (Itv.const (Ctype.sizeof t)), env)
  | Ast.Sizeof_expr _ -> (Aval.of_num Itv.top, env)
  | Ast.Comma (a, b) ->
      let _, env = eval st env a in
      eval st env b
  | Ast.Cond (c, a, b) ->
      let _, env = eval st env c in
      let va, ea = eval st env a in
      let vb, eb = eval st env b in
      (Aval.join va vb, Aval.env_join ea eb)
  | Ast.Unary (u, e1) -> eval_unary st env u e1
  | Ast.Binary (op, a, b) -> eval_binary st env op a b
  | Ast.Assign (opo, lhs, rhs) -> eval_assign st env opo lhs rhs
  | Ast.Index (b, i) ->
      let vb, env = eval st env b in
      let vi, env = eval st env i in
      record_oblig st ~kind:Oblig.Index ~path:(Pretty.expr e) vb vi.Aval.num;
      (read_mem st env vb, env)
  | Ast.Call (f, args) -> eval_call st env f args

and read_var st env x =
  match resolve st x with
  | None -> Aval.top
  | Some entry ->
      if is_array_entry entry then begin
        register_block st entry;
        record_gaccess st env entry.id;
        Aval.of_blocks (VSet.singleton entry.id)
      end
      else if Ir.Var_id.is_global entry.id then begin
        record_gaccess st env entry.id;
        g_read st (Cvar entry.id)
      end
      else Aval.env_lookup env entry.id

and read_mem st env (base : Aval.t) =
  match base.ptr with
  | Aval.Pbot -> Aval.bottom
  | Aval.Ptop -> Aval.top
  | Aval.Pblocks bs ->
      VSet.fold
        (fun id acc ->
          let v =
            match cell_of_block st id with
            | (Cvar gid | Cmem gid) when Ir.Var_id.is_global gid ->
                record_gaccess st env gid;
                g_read st (cell_of_block st id)
            | Cvar lid | Cmem lid ->
                if is_local st lid then Aval.env_lookup env lid else Aval.top
          in
          Aval.join acc v)
        bs Aval.bottom

and eval_unary st env u e1 =
  match u with
  | Ast.Neg ->
      let v, env = eval st env e1 in
      (Aval.of_num (Itv.neg v.Aval.num), env)
  | Ast.Not ->
      let v, env = eval st env e1 in
      (Aval.of_num (Itv.lognot v.Aval.num), env)
  | Ast.Bnot ->
      let v, env = eval st env e1 in
      (Aval.of_num (Itv.bnot v.Aval.num), env)
  | Ast.Deref ->
      let vp, env = eval st env e1 in
      record_oblig st ~kind:Oblig.Deref
        ~path:(Pretty.expr (Ast.Unary (Ast.Deref, e1)))
        vp (Itv.const 0);
      (read_mem st env vp, env)
  | Ast.Addr -> begin
      match e1 with
      | Ast.Var x -> begin
          match resolve st x with
          | Some entry ->
              register_block st entry;
              st.addr_taken <- VSet.add entry.id st.addr_taken;
              (Aval.of_blocks (VSet.singleton entry.id), env)
          | None -> (Aval.top, env)
        end
      | Ast.Index (b, i) ->
          let vb, env = eval st env b in
          let vi, env = eval st env i in
          record_oblig st ~kind:Oblig.Index
            ~path:(Pretty.expr (Ast.Unary (Ast.Addr, e1)))
            vb vi.Aval.num;
          ({ vb with num = Itv.top; tid = false }, env)
      | Ast.Unary (Ast.Deref, p) -> eval st env p
      | _ -> (Aval.top, env)
    end
  | Ast.Preinc | Ast.Predec | Ast.Postinc | Ast.Postdec ->
      let op = match u with
        | Ast.Preinc | Ast.Postinc -> Ast.Add
        | _ -> Ast.Sub
      in
      let old, env = eval st env e1 in
      let nv =
        { Aval.num = Itv.binop op old.Aval.num (Itv.const 1);
          ptr = old.Aval.ptr; tid = false }
      in
      let env = write_lv st env e1 nv in
      let v = match u with
        | Ast.Postinc | Ast.Postdec -> old
        | _ -> nv
      in
      (v, env)

and eval_binary st env op a b =
  let va, env = eval st env a in
  let vb, env = eval st env b in
  let num = Itv.binop op va.Aval.num vb.Aval.num in
  let ptr =
    match op with
    | Ast.Add | Ast.Sub -> begin
        (* pointer arithmetic loses the offset we track implicitly as
           zero, so the result may address anywhere in memory *)
        match (va.Aval.ptr, vb.Aval.ptr) with
        | Aval.Pbot, Aval.Pbot -> Aval.Pbot
        | Aval.Pblocks s, Aval.Pbot | Aval.Pbot, Aval.Pblocks s
          when VSet.is_empty s -> Aval.Pbot
        | _ -> Aval.Ptop
      end
    | _ -> Aval.Pbot
  in
  ({ Aval.num; ptr; tid = false }, env)

and eval_assign st env opo lhs rhs =
  match (opo, lhs, alloc_call rhs) with
  | None, Ast.Var x, Some (fn, size) -> begin
      match resolve st x with
      | Some entry ->
          let count = alloc_count st env entry size in
          register_alloc st entry fn count;
          let v = Aval.of_blocks (VSet.singleton entry.id) in
          let env = write_var st env entry v in
          (v, env)
      | None -> (Aval.top, env)
    end
  | _ ->
      let vr, env = eval st env rhs in
      let v, env =
        match opo with
        | None -> (vr, env)
        | Some op ->
            let cur, env = eval st env lhs in
            ( { Aval.num = Itv.binop op cur.Aval.num vr.Aval.num;
                ptr = Aval.Pbot; tid = false },
              env )
      in
      let env = write_lv st env lhs v in
      (v, env)

and alloc_call (e : Ast.expr) =
  match e with
  | Ast.Cast (_, e1) -> alloc_call e1
  | Ast.Call (fn, [ size ]) when List.mem fn alloc_fns -> Some (fn, size)
  | _ -> None

and alloc_count st env (entry : Ir.Symtab.entry) (size : Ast.expr) =
  let elt_size =
    match Ctype.pointee entry.ty with
    | Some t -> Ctype.sizeof t
    | None -> 1
  in
  match size with
  | Ast.Binary (Ast.Mul, Ast.Sizeof_type _, e)
  | Ast.Binary (Ast.Mul, e, Ast.Sizeof_type _) ->
      let v, _ = eval st env e in
      Itv.singleton v.Aval.num
  | Ast.Sizeof_type _ -> Some 1
  | Ast.Int_lit n when elt_size > 0 && n mod elt_size = 0 ->
      Some (n / elt_size)
  | _ ->
      let v, _ = eval st env size in
      Option.map
        (fun n -> if elt_size > 0 then n / elt_size else n)
        (Itv.singleton v.Aval.num)

and write_var st env (entry : Ir.Symtab.entry) v =
  if is_array_entry entry then env (* ill-formed; arrays are not lvalues *)
  else if Ir.Var_id.is_global entry.id then begin
    record_gaccess st env entry.id;
    g_join st (Cvar entry.id) v;
    env
  end
  else Aval.env_update env entry.id v

and write_mem st env (base : Aval.t) v =
  match base.ptr with
  | Aval.Pbot -> env
  | Aval.Ptop -> havoc_all st env
  | Aval.Pblocks bs ->
      VSet.fold
        (fun id env ->
          match cell_of_block st id with
          | (Cvar gid | Cmem gid) as c when Ir.Var_id.is_global gid ->
              record_gaccess st env gid;
              g_join st c v;
              env
          | Cvar lid | Cmem lid ->
              if is_local st lid then
                (* weak update: other elements / earlier values remain *)
                Aval.env_update env lid (Aval.join (Aval.env_lookup env lid) v)
              else env)
        bs env

(* A write through an unknown pointer may land in any block. *)
and havoc_all st env =
  CMap.iter (fun c _ -> g_join st c Aval.top) st.g;
  match env with
  | Aval.Bot -> env
  | Aval.Env m ->
      VMap.fold
        (fun id _ env ->
          let blockish =
            VSet.mem id st.addr_taken
            ||
            match Ir.Symtab.type_of st.symtab id with
            | Some (Ctype.Array _) -> true
            | _ -> false
          in
          if blockish then Aval.env_update env id Aval.top else env)
        m env

and write_lv st env (lhs : Ast.expr) v =
  match lhs with
  | Ast.Var x -> begin
      match resolve st x with
      | Some entry -> write_var st env entry v
      | None -> env
    end
  | Ast.Index (b, i) ->
      let vb, env = eval st env b in
      let vi, env = eval st env i in
      record_oblig st ~kind:Oblig.Index ~path:(Pretty.expr lhs) vb
        vi.Aval.num;
      write_mem st env vb v
  | Ast.Unary (Ast.Deref, p) ->
      let vp, env = eval st env p in
      record_oblig st ~kind:Oblig.Deref ~path:(Pretty.expr lhs) vp
        (Itv.const 0);
      write_mem st env vp v
  | Ast.Cast (_, l) -> write_lv st env l v
  | _ -> env

and eval_call st env f args =
  (* evaluate arguments left to right, collecting their values *)
  let vargs, env =
    List.fold_left
      (fun (vs, env) a ->
        let v, env = eval st env a in
        (v :: vs, env))
      ([], env) args
  in
  let vargs = List.rev vargs in
  if f = "pthread_create" then begin
    (match args with
    | [ _; _; fe; _ ] -> begin
        match Analysis.Thread_analysis.func_name_of_arg fe with
        | Some fname when Ast.find_function st.program fname <> None ->
            let arg =
              match vargs with [ _; _; _; va ] -> va | _ -> Aval.top
            in
            spawn st fname arg
        | _ -> ()
      end
    | _ -> ());
    (Aval.of_num (Itv.const 0), env)
  end
  else if f = "RCCE_ue" then
    (Aval.of_num ~tid:true (Itv.range 0 (st.conf.ncores - 1)), env)
  else if f = "RCCE_num_ues" then
    (Aval.of_num (Itv.const st.conf.ncores), env)
  else if SSet.mem f noop_fns then (Aval.of_num (Itv.const 0), env)
  else if SSet.mem f print_fns then (Aval.of_num Itv.top, env)
  else if List.mem f alloc_fns then (Aval.top, env)
  else
    match Ast.find_function st.program f with
    | Some callee ->
        if SMap.mem f st.spawned then
          st.direct_called <- SSet.add f st.direct_called;
        join_ctx st f callee vargs;
        let r =
          match SMap.find_opt f st.summaries with
          | Some v -> v
          | None -> Aval.bottom
        in
        (r, env)
    | None ->
        (* unknown external: anything reachable from pointer arguments
           may be overwritten *)
        let env =
          List.fold_left
            (fun env (v : Aval.t) ->
              match v.ptr with
              | Aval.Pblocks bs when not (VSet.is_empty bs) ->
                  write_mem st env v Aval.top
              | Aval.Ptop -> env (* joining top everywhere helps nobody *)
              | _ -> env)
            env vargs
        in
        (Aval.top, env)

and spawn st fname (arg : Aval.t) =
  let tagged = { arg with tid = true } in
  let old =
    match SMap.find_opt fname st.spawned with
    | Some v -> v
    | None -> Aval.bottom
  in
  let nv = vmerge st old tagged in
  if not (Aval.equal old nv) then begin
    st.spawned <- SMap.add fname nv st.spawned;
    st.changed <- true
  end;
  let key = (st.cur_loc, fname) in
  let oldi =
    match Site.find_opt key st.spawn_sites with
    | Some i -> i
    | None -> Itv.bottom
  in
  let ni = dmerge st oldi arg.Aval.num in
  if not (Itv.equal oldi ni) then
    st.spawn_sites <- Site.add key ni st.spawn_sites

and join_ctx st fname (callee : Ast.func) vargs =
  let nparams = List.length callee.Ast.f_params in
  let vargs =
    if List.length vargs >= nparams then
      List.filteri (fun i _ -> i < nparams) vargs
    else vargs @ List.init (nparams - List.length vargs) (fun _ -> Aval.top)
  in
  let old = SMap.find_opt fname st.ctx in
  let nv =
    match old with
    | None -> vargs
    | Some old -> List.map2 (fun o v -> vmerge st o v) old vargs
  in
  let same =
    match old with
    | None -> false
    | Some old -> List.for_all2 Aval.equal old nv
  in
  if not same then begin
    st.ctx <- SMap.add fname nv st.ctx;
    st.changed <- true
  end

(* ---- statements and transfer -------------------------------------- *)

let exec_decl st env (d : Ast.decl) =
  match resolve st d.Ast.d_name with
  | None -> env
  | Some entry -> begin
      register_block st entry;
      match d.Ast.d_init with
      | None ->
          if Ir.Var_id.is_global entry.id then env
          else Aval.env_update env entry.id Aval.top (* uninitialized garbage *)
      | Some (Ast.Init_expr e) ->
          let v, env = eval st env e in
          write_var st env entry v
      | Some (Ast.Init_list es) ->
          let v, env =
            List.fold_left
              (fun (acc, env) e ->
                let v, env = eval st env e in
                (Aval.join acc v, env))
              (Aval.bottom, env) es
          in
          let size =
            match entry.ty with
            | Ctype.Array (_, Some n) -> n
            | _ -> List.length es
          in
          let v =
            if List.length es < size then
              Aval.join v (Aval.of_num (Itv.const 0))
            else v
          in
          if is_array_entry entry then Aval.env_update env entry.id v
          else write_var st env entry v
    end

let exec_stmt st env (s : Ast.stmt) =
  st.cur_loc <- s.Ast.s_loc;
  match s.Ast.s_desc with
  | Ast.Sexpr e -> snd (eval st env e)
  | Ast.Sdecl ds -> List.fold_left (exec_decl st) env ds
  | Ast.Sreturn (Some e) ->
      let v, env = eval st env e in
      st.ret_acc <- Aval.join st.ret_acc v;
      env
  | Ast.Sreturn None | Ast.Snull -> env
  | _ -> env (* structured statements are edges, not nodes *)

(* ---- condition refinement ----------------------------------------- *)

let rec pure (e : Ast.expr) =
  match e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Str_lit _ | Ast.Char_lit _
  | Ast.Var _ | Ast.Sizeof_type _ | Ast.Sizeof_expr _ -> true
  | Ast.Unary ((Ast.Preinc | Ast.Predec | Ast.Postinc | Ast.Postdec), _)
    -> false
  | Ast.Unary (_, a) | Ast.Cast (_, a) -> pure a
  | Ast.Binary (_, a, b) | Ast.Index (a, b) | Ast.Comma (a, b) ->
      pure a && pure b
  | Ast.Cond (a, b, c) -> pure a && pure b && pure c
  | Ast.Assign _ | Ast.Call _ -> false

let negate_cmp (op : Ast.binop) =
  match op with
  | Ast.Eq -> Ast.Ne
  | Ast.Ne -> Ast.Eq
  | Ast.Lt -> Ast.Ge
  | Ast.Ge -> Ast.Lt
  | Ast.Gt -> Ast.Le
  | Ast.Le -> Ast.Gt
  | op -> op

(* Refine [side] knowing that [side op other] holds, where [vother] is
   the value of the other side.  Handles a bare variable and the shifted
   forms [x + e] / [x - e] (interval arithmetic keeps the bound sound
   even when [e] is not a singleton). *)
let rec refine_side st env side op (vother : Itv.t) =
  match side with
  | Ast.Var x -> begin
      match resolve st x with
      | Some entry
        when (not (Ir.Var_id.is_global entry.id))
             && not (is_array_entry entry) ->
          let cur = Aval.env_lookup env entry.id in
          let refined = Itv.filter op cur.Aval.num vother in
          Aval.env_update env entry.id { cur with num = refined }
      | _ -> env
    end
  | Ast.Cast (_, e) -> refine_side st env e op vother
  | Ast.Binary (Ast.Add, x, e) when pure e ->
      let ve, _ = eval st env e in
      refine_side st env x op (Itv.binop Ast.Sub vother ve.Aval.num)
  | Ast.Binary (Ast.Sub, x, e) when pure e ->
      let ve, _ = eval st env e in
      refine_side st env x op (Itv.binop Ast.Add vother ve.Aval.num)
  | _ -> env

let swap_cmp (op : Ast.binop) =
  match op with
  | Ast.Lt -> Ast.Gt
  | Ast.Gt -> Ast.Lt
  | Ast.Le -> Ast.Ge
  | Ast.Ge -> Ast.Le
  | op -> op

let rec filter_cond st (env : Aval.env) (e : Ast.expr) outcome =
  if Aval.env_is_bot env then env
  else
    match e with
    | Ast.Unary (Ast.Not, e1) -> filter_cond st env e1 (not outcome)
    | Ast.Cast (_, e1) -> filter_cond st env e1 outcome
    | Ast.Int_lit n -> if n <> 0 = outcome then env else Aval.Bot
    | Ast.Binary (Ast.Land, a, b) ->
        if outcome then
          filter_cond st (filter_cond st env a true) b true
        else
          Aval.env_join
            (filter_cond st env a false)
            (filter_cond st env b false)
    | Ast.Binary (Ast.Lor, a, b) ->
        if outcome then
          Aval.env_join (filter_cond st env a true) (filter_cond st env b true)
        else filter_cond st (filter_cond st env a false) b false
    | Ast.Binary ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge)
                  as op, a, b)
      when pure a && pure b ->
        let op = if outcome then op else negate_cmp op in
        let va, _ = eval st env a in
        let vb, _ = eval st env b in
        if
          Itv.is_bottom
            (Itv.binop op va.Aval.num vb.Aval.num |> Itv.filter_nonzero)
        then Aval.Bot
        else
          let env = refine_side st env a op vb.Aval.num in
          refine_side st env b (swap_cmp op) va.Aval.num
    | Ast.Var _ when pure e ->
        let v, _ = eval st env e in
        let refined =
          if outcome then Itv.filter_nonzero v.Aval.num
          else Itv.filter_zero v.Aval.num
        in
        if Itv.is_bottom refined then Aval.Bot
        else refine_side st env e (if outcome then Ast.Ne else Ast.Eq)
               (Itv.const 0)
    | _ -> env

(* ---- per-function analysis ---------------------------------------- *)

module Flow = Ir.Dataflow.Forward (struct
  type t = Aval.env

  let bottom = Aval.Bot
  let equal = Aval.env_equal
  let join = Aval.env_join
end)

let cfg_of st (fn : Ast.func) =
  match Hashtbl.find_opt st.cfgs fn.Ast.f_name with
  | Some c -> c
  | None ->
      let cfg = List.assoc fn.Ast.f_name st.fn_cfgs in
      let c = (cfg, Visit.expr_stmts cfg.Ir.Cfg.func) in
      Hashtbl.replace st.cfgs fn.Ast.f_name c;
      c

let resolve_param st (fn : Ast.func) pname =
  match Ir.Symtab.resolve st.symtab ~func:fn.Ast.f_name pname with
  | Some e -> Some e.Ir.Symtab.id
  | None -> None

let entry_env st (fn : Ast.func) =
  let ctx_args = SMap.find_opt fn.Ast.f_name st.ctx in
  let spawn_arg = SMap.find_opt fn.Ast.f_name st.spawned in
  let env = Aval.env_empty in
  let env, _ =
    List.fold_left
      (fun (env, i) (pname, _) ->
        match resolve_param st fn pname with
        | None -> (env, i + 1)
        | Some id ->
            let from_ctx =
              match ctx_args with
              | Some args when i < List.length args -> List.nth args i
              | _ -> Aval.bottom
            in
            let from_spawn =
              match spawn_arg with
              | Some v when i = 0 -> v
              | _ -> Aval.bottom
            in
            let v =
              if fn.Ast.f_name = st.entry then Aval.top
              else Aval.join from_ctx from_spawn
            in
            let v = if Aval.equal v Aval.bottom then Aval.top else v in
            (Aval.env_update env id v, i + 1))
      (env, 0) fn.Ast.f_params
  in
  env

let analyze_fn st (fn : Ast.func) =
  st.cur_func <- fn.Ast.f_name;
  st.ret_acc <- Aval.bottom;
  let cfg, stmt_of_expr = cfg_of st fn in
  let transfer (node : Ir.Cfg.node) env =
    if Aval.env_is_bot env then env
    else
      match node.Ir.Cfg.kind with
      | Ir.Cfg.Statement s -> exec_stmt st env s
      | Ir.Cfg.Condition e ->
          (match List.assq_opt e stmt_of_expr with
          | Some s -> st.cur_loc <- s.Ast.s_loc
          | None -> ());
          snd (eval st env e)
      | _ -> env
  in
  let branch _node e outcome env = filter_cond st env e outcome in
  let result =
    Flow.solve ~widen:Aval.env_widen ~branch cfg ~init:(entry_env st fn)
      ~transfer
  in
  (* summary: joined return values; a fall-through exit contributes top *)
  let exit_node = Ir.Cfg.node cfg cfg.Ir.Cfg.exit in
  let falls =
    List.exists
      (fun p ->
        let pn = Ir.Cfg.node cfg p in
        let is_return =
          match pn.Ir.Cfg.kind with
          | Ir.Cfg.Statement { Ast.s_desc = Ast.Sreturn _; _ } -> true
          | _ -> false
        in
        (not is_return)
        && not (Aval.env_is_bot result.Flow.out_facts.(p)))
      exit_node.Ir.Cfg.preds
  in
  let ret = if falls then Aval.join st.ret_acc Aval.top else st.ret_acc in
  let old =
    match SMap.find_opt fn.Ast.f_name st.summaries with
    | Some v -> v
    | None -> Aval.bottom
  in
  let nv = vmerge st old ret in
  if not (Aval.equal old nv) then begin
    st.summaries <- SMap.add fn.Ast.f_name nv st.summaries;
    st.changed <- true
  end

(* ---- global store seeding ----------------------------------------- *)

let seed_globals st =
  st.cur_func <- "";
  List.iter
    (fun (d : Ast.decl) ->
      match Ir.Symtab.resolve st.symtab d.Ast.d_name with
      | None -> ()
      | Some entry ->
          register_block st entry;
          let zero = Aval.of_num (Itv.const 0) in
          let cell, v =
            match entry.ty with
            | Ctype.Array (_, size) -> begin
                let init =
                  match d.Ast.d_init with
                  | Some (Ast.Init_list es) ->
                      let v =
                        List.fold_left
                          (fun acc e ->
                            let ve, _ = eval st Aval.env_empty e in
                            Aval.join acc ve)
                          Aval.bottom es
                      in
                      let full =
                        match size with
                        | Some n -> List.length es >= n
                        | None -> true
                      in
                      if full then v else Aval.join v zero
                  | Some (Ast.Init_expr _) -> Aval.top
                  | None -> zero (* C static storage is zero-filled *)
                in
                (Cmem entry.id, init)
              end
            | _ ->
                let init =
                  match d.Ast.d_init with
                  | Some (Ast.Init_expr e) -> fst (eval st Aval.env_empty e)
                  | Some (Ast.Init_list _) -> Aval.top
                  | None ->
                      if Ctype.is_pointer entry.ty then Aval.null else zero
                in
                (Cvar entry.id, init)
          in
          st.g <- CMap.add cell v st.g)
    (Ast.global_decls st.program)

(* ---- driver -------------------------------------------------------- *)

let should_analyze st (fn : Ast.func) =
  fn.Ast.f_name = st.entry
  || SMap.mem fn.Ast.f_name st.ctx
  || SMap.mem fn.Ast.f_name st.spawned

let is_thread_fn st (fn : Ast.func) = SMap.mem fn.Ast.f_name st.spawned

let sweep st funcs ~filter =
  List.iter (fun fn -> if should_analyze st fn && filter fn then
                analyze_fn st fn)
    funcs

let iterate st funcs ~filter =
  let continue_ = ref true in
  while !continue_ && st.rounds < max_rounds do
    st.rounds <- st.rounds + 1;
    st.widen_now <- st.rounds >= widen_round;
    st.changed <- false;
    sweep st funcs ~filter;
    continue_ := st.changed
  done

(* ---- summary ------------------------------------------------------- *)

let summarize st =
  let obligations =
    Hashtbl.fold (fun _ o acc -> o :: acc) st.obligs []
    |> List.sort Oblig.compare_site
  in
  let spawns =
    Site.bindings st.spawn_sites
    |> List.map (fun ((loc, fname), itv) ->
           { Oblig.sp_func = fname; sp_loc = loc;
             sp_interval = Itv.to_string itv })
  in
  let gfacts =
    VMap.bindings st.gaccess
    |> List.map (fun (id, ext) ->
           let extent, single =
             match ext with
             | Emain -> (Oblig.Main_only, false)
             | Emixed -> (Oblig.Mixed, false)
             | Ethread (f, itv) ->
                 if SSet.mem f st.direct_called then (Oblig.Mixed, false)
                 else (Oblig.Single_thread f, Itv.singleton itv <> None)
           in
           { Oblig.gf_name = id.Ir.Var_id.name; gf_extent = extent;
             gf_single_instance = single;
             gf_addr_taken = VSet.mem id st.addr_taken })
    |> List.sort (fun a b -> compare a.Oblig.gf_name b.Oblig.gf_name)
  in
  let functions =
    List.filter_map
      (fun (fn : Ast.func) ->
        if should_analyze st fn then Some fn.Ast.f_name else None)
      (Ast.functions st.program)
  in
  { Oblig.s_mode = st.conf.mode;
    s_obligations = obligations; s_spawns = spawns; s_gfacts = gfacts;
    s_rounds = st.rounds; s_functions = functions }

let run conf symtab fn_cfgs =
  let program = Ir.Symtab.program symtab in
  let entry = Ast.entry_name program in
  let st =
    { conf; symtab; program; entry; fn_cfgs;
      cfgs = Hashtbl.create 16; blocks = Hashtbl.create 32;
      allocs = Hashtbl.create 16; obligs = Hashtbl.create 64;
      g = CMap.empty; ctx = SMap.empty; spawned = SMap.empty;
      summaries = SMap.empty; spawn_sites = Site.empty;
      gaccess = VMap.empty; addr_taken = VSet.empty;
      direct_called = SSet.empty; changed = false; widen_now = false;
      collect = false; rounds = 0; cur_func = "";
      cur_loc = Srcloc.dummy; ret_acc = Aval.bottom }
  in
  seed_globals st;
  let funcs = Ast.functions program in
  if conf.interference then begin
    iterate st funcs ~filter:(fun _ -> true);
    st.collect <- true;
    sweep st funcs ~filter:(fun _ -> true)
  end
  else begin
    (* Naive sequential lifting: fixpoint over the sequential part, then
       each thread body against a snapshot of the store, its writes
       discarded afterwards.  Unsound in the presence of interference —
       this is the strawman the unit tests compare against. *)
    iterate st funcs ~filter:(fun fn -> not (is_thread_fn st fn));
    let snapshot = st.g in
    st.collect <- true;
    sweep st funcs ~filter:(fun fn -> not (is_thread_fn st fn));
    st.collect <- false;
    List.iter
      (fun fn ->
        if is_thread_fn st fn then begin
          st.g <- snapshot;
          st.rounds <- 0;
          iterate st funcs ~filter:(fun f ->
              f.Ast.f_name = fn.Ast.f_name
              || (not (is_thread_fn st f)
                  && f.Ast.f_name <> st.entry));
          st.collect <- true;
          analyze_fn st fn;
          st.collect <- false
        end)
      funcs;
    st.g <- snapshot
  end;
  summarize st

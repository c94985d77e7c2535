open Cfront

(* A C interpreter over the SCC simulator: the translated RCCE programs
   produced by the Stage 5 translator — and the original Pthread programs
   they came from — execute with every load, store, synchronization call
   and arithmetic operator charged to the simulated machine.

   Execution modes mirror the paper's experimental setup:
   - [run_pthread]: one process on core 0; [pthread_create] spawns
     additional contexts on the same core (the unconverted program "can
     only take advantage of a single core");
   - [run_rcce ~ncores]: one process per core, each interpreting the
     whole program from its own private globals, with RCCE collective
     allocation, put/get-backed barrier and the test-and-set locks.

   Programs are first run through [Resolve], which interns identifiers
   to integer slots; the evaluator here works on that resolved form, so
   the per-access cost is an array index (falling back to the original
   name-walk only for genuinely dynamic references).  Data lives in a
   store keyed by simulated address; compute cycles are accumulated per
   task and flushed as one engine effect at every memory or
   synchronization operation, so event counts stay proportional to
   memory traffic rather than to executed operators. *)

exception Runtime_error of string

let runtime_error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

exception Thread_exit

type lvalue = { addr : int; ty : Ctype.t }

type outcome = Normal | Returned of Value.t | Broke | Continued

(* One region's backing store: values indexed by byte offset, in pages
   of 256 cells.  Offsets come from the memmap's bump allocators, so they
   are small and dense; a page is allocated on its first write, and an
   empty cell reads as the type's zero (C-style zero-filled memory).  A
   run touches a few pages of a few of its 97 regions (shared DRAM and
   each core's private and MPB space), so it pays for those only, and a
   growing region adds pages instead of copying its cells.  A 256-cell
   page is small enough for the minor heap.  Indexing beats hashing the
   full 63-bit address on every load and store.

   Empty cells hold a physically-unique sentinel instead of [None]: a
   store writes the value directly with no [Some] wrapper, which removes
   one allocation from every simulated store.  Every page not yet
   written is the one shared [empty_page], which is never written, so a
   read needs no test for a missing page. *)
let absent : Value.t = Value.Vint (Sys.opaque_identity 0)

let page_bits = 8
let page_mask = (1 lsl page_bits) - 1
let empty_page : Value.t array = Array.make (1 lsl page_bits) absent

type region_store = { mutable pages : Value.t array array }

let region_store_create () = { pages = [||] }

(* Returns [absent] (physical identity) when the cell was never written. *)
let region_store_get rs offset =
  let p = offset lsr page_bits in
  if p < Array.length rs.pages then rs.pages.(p).(offset land page_mask)
  else absent

let region_store_set rs offset v =
  let p = offset lsr page_bits in
  let n = Array.length rs.pages in
  if p >= n then begin
    let grown = Array.make (Int.max (n * 2) (p + 1)) empty_page in
    Array.blit rs.pages 0 grown 0 n;
    rs.pages <- grown
  end;
  let page = rs.pages.(p) in
  let page =
    if page != empty_page then page
    else begin
      let fresh = Array.make (1 lsl page_bits) absent in
      rs.pages.(p) <- fresh;
      fresh
    end
  in
  page.(offset land page_mask) <- v

(* State shared by every task of one simulated run. *)
type shared = {
  resolved : Resolve.t;
  eng : Scc.Engine.t;
  shared_store : region_store;
  private_stores : region_store array;      (* per core *)
  mpb_stores : region_store array;          (* per core *)
  strings : (string, int) Hashtbl.t;        (* literal -> address *)
  string_at : (int, string) Hashtbl.t;      (* address -> literal *)
  output : Buffer.t;
  mutexes : (string, int) Hashtbl.t;        (* mutex name -> lock id *)
  barriers : (string, int * int) Hashtbl.t;
      (* pthread barrier name -> (engine barrier id, group count) *)
  rcce_flags : (string, int) Hashtbl.t;     (* flag name -> flag index *)
  shm_log : (int, int) Hashtbl.t;           (* collective RCCE_shmalloc *)
  mpb_alloc_log : (int, int) Hashtbl.t;     (* collective RCCE_malloc *)
  ncores : int;                             (* RCCE ranks; 1 for pthread *)
  races : Lockset.t option;                 (* Eraser detector, if enabled *)
  profile : Scc.Profile.t option;           (* simulated-time profiler *)
  fn_slots : int array;      (* profiler slot per [rp_funcs] index *)
  line_slots : int array;    (* profiler line slot per [rp_locs] index *)
}

(* One process: an address space with its own globals.  [globals] is the
   diagnostics/dynamic-walk view by name; [global_slots] the resolved
   fast path by table index — both updated together. *)
and process = {
  sh : shared;
  globals : (string, lvalue) Hashtbl.t;
  global_slots : lvalue option array;
  core : int;
  rank : int;   (* RCCE rank; 0 for the pthread process *)
}

(* One call frame: a slot per distinct name declared by the function; an
   empty slot means that declaration has not executed in this call. *)
and frame = { f_fn : Resolve.rfunc; f_slots : lvalue option array }

(* One executing context (an RCCE process body or one Pthread). *)
and task = {
  proc : process;
  api : Scc.Engine.api;
  mutable frames : frame list;
  mutable pending_cycles : int;
  mutable shm_count : int;     (* per-task collective call counters *)
  mutable mpb_count : int;
  mutable held_locks : Lockset.Int_set.t;   (* for race detection *)
}

let make_frame (fn : Resolve.rfunc) =
  { f_fn = fn; f_slots = Array.make fn.Resolve.rf_nslots None }

(* --- cycle accounting ---------------------------------------------------- *)

let flush_threshold = 8192

(* Wait for the engine turn before touching state every task of the run
   shares and no engine operation guards: the output, the literal pool,
   the collective allocation logs, the sync-object id tables and the
   profiler's lock names. *)
let take_turn task = task.api.Scc.Engine.take_turn ()

let flush task =
  if task.pending_cycles > 0 then begin
    task.api.Scc.Engine.compute task.pending_cycles;
    task.pending_cycles <- 0
  end

let charge task cycles =
  task.pending_cycles <- task.pending_cycles + cycles;
  if task.pending_cycles >= flush_threshold then flush task

(* Profiler attribution frames.  Pending cycles are flushed at the frame
   boundary so batched compute lands on the frame it was executed in:
   cycles accumulated before a call belong to the caller, cycles pending
   at return belong to the callee. *)
let prof_push task fidx =
  match task.proc.sh.profile with
  | None -> ()
  | Some p ->
      flush task;
      Scc.Profile.push p ~ctx:task.api.Scc.Engine.self
        task.proc.sh.fn_slots.(fidx)

let prof_pop task =
  match task.proc.sh.profile with
  | None -> ()
  | Some p ->
      flush task;
      Scc.Profile.pop p ~ctx:task.api.Scc.Engine.self

(* --- memory -------------------------------------------------------------- *)

let value_bytes ty =
  match ty with
  | Ctype.Array (elt, _) -> Ctype.sizeof elt
  | ty -> Ctype.sizeof ty

let sync_races task =
  match task.proc.sh.races with
  | None -> ()
  | Some detector -> Lockset.synchronize detector

let observe task ~write addr =
  match task.proc.sh.races with
  | None -> ()
  | Some detector ->
      Lockset.access detector ~ctx:task.api.Scc.Engine.self
        ~held:task.held_locks ~write addr

(* The store of [addr]'s region, decoded once for the checks every
   access makes first, in this order: the address must name memory of
   this chip, and must not lie in a DRAM region's guard line.  Offset 0
   of every DRAM region is a guard line (see Scc.Memmap.create), so a
   small offset there can only come from NULL or NULL-adjacent pointer
   arithmetic; the MPB (kind 2) is unguarded. *)
let store_at sh addr =
  if not (Scc.Memmap.on_chip (Scc.Engine.memmap sh.eng) addr) then
    runtime_error "access outside the chip's memory (address %#x)" addr;
  (* on the chip, no bit is set above the region kind *)
  let kind = addr lsr 40 in
  if kind = 2 then sh.mpb_stores.((addr lsr 32) land 0xff)
  else if addr land 0xffffffff < 32 then
    runtime_error "null pointer dereference (address %#x)" addr
  else if kind = 0 then sh.private_stores.((addr lsr 32) land 0xff)
  else sh.shared_store

let read_mem_at task addr ty =
  let rs = store_at task.proc.sh addr in
  flush task;
  observe task ~write:false addr;
  task.api.Scc.Engine.load addr ~bytes:(value_bytes ty);
  let v = region_store_get rs (addr land 0xffffffff) in
  if v == absent then Value.zero_of ty else v

let read_mem task { addr; ty } = read_mem_at task addr ty

(* A store needs a cell to land in: one at or past the end of its
   region's allocations is an error, where a wild pointer would otherwise
   grow the region's store to its offset. *)
let check_store sh addr =
  if addr land 0xffffffff >= Scc.Memmap.extent (Scc.Engine.memmap sh.eng) addr
  then runtime_error "store outside every allocation (address %#x)" addr

let write_mem_at task addr ty v =
  let rs = store_at task.proc.sh addr in
  check_store task.proc.sh addr;
  flush task;
  observe task ~write:true addr;
  task.api.Scc.Engine.store addr ~bytes:(value_bytes ty);
  region_store_set rs (addr land 0xffffffff) (Value.convert ty v)

let write_mem task { addr; ty } v = write_mem_at task addr ty v

(* Untimed store initialization (global initializers run at load time,
   into their own allocations, which pass [store_at]'s checks). *)
let poke task addr ty v =
  check_store task.proc.sh addr;
  region_store_set (store_at task.proc.sh addr) (addr land 0xffffffff)
    (Value.convert ty v)

let alloc_private task ~bytes =
  Scc.Memmap.alloc
    (Scc.Engine.memmap task.proc.sh.eng)
    (Scc.Memmap.Private task.proc.core) ~bytes

(* --- scoping -------------------------------------------------------------- *)

(* The original dynamic walk, by name: innermost frame outwards, then
   the process globals.  Only the slow path — slot misses and [Dynamic]
   references — comes through here. *)
let find_in_frame frame name =
  match Hashtbl.find_opt frame.f_fn.Resolve.rf_locals name with
  | Some i -> frame.f_slots.(i)
  | None -> None

let rec lookup_frames proc frames name =
  match frames with
  | [] -> Hashtbl.find_opt proc.globals name
  | frame :: rest -> begin
      match find_in_frame frame name with
      | Some _ as r -> r
      | None -> lookup_frames proc rest name
    end

let resolve_slot task (slot : Resolve.slot) name : lvalue option =
  match slot with
  | Resolve.Local i -> begin
      match task.frames with
      | frame :: rest -> begin
          match frame.f_slots.(i) with
          | Some _ as r -> r
          | None ->
              (* declaration not yet executed in this call: the name may
                 still resolve dynamically in a caller's frame *)
              lookup_frames task.proc rest name
        end
      | [] -> lookup_frames task.proc [] name
    end
  | Resolve.Global g -> task.proc.global_slots.(g)
  | Resolve.Dynamic -> lookup_frames task.proc task.frames name

let name_region task ?loc ~base ~bytes name =
  match task.proc.sh.races with
  | None -> ()
  | Some detector -> Lockset.name_region detector ?loc ~base ~bytes name

let declare task ?loc ~slot name ty =
  let bytes = Int.max (Ctype.sizeof ty) 4 in
  let lv = { addr = alloc_private task ~bytes; ty } in
  name_region task ?loc ~base:lv.addr ~bytes name;
  (match task.frames with
  | frame :: _ -> frame.f_slots.(slot) <- Some lv
  | [] -> runtime_error "no active stack frame");
  lv

let string_value task s =
  let sh = task.proc.sh in
  (* the first task to evaluate a literal allocates it in its own page *)
  take_turn task;
  let addr =
    match Hashtbl.find_opt sh.strings s with
    | Some addr -> addr
    | None ->
        let addr = alloc_private task ~bytes:(String.length s + 1) in
        Hashtbl.replace sh.strings s addr;
        Hashtbl.replace sh.string_at addr s;
        addr
  in
  Value.Vptr { addr; elt = Ctype.Char }

(* --- expression evaluation ------------------------------------------------ *)

let rec eval task (e : Resolve.rexpr) : Value.t =
  match e with
  | Resolve.Rlit v -> v
  | Resolve.Rstr s -> string_value task s
  | Resolve.Rconst_var (v, _, _) -> v
  | Resolve.Rvar (slot, name) -> begin
      match resolve_slot task slot name with
      | Some { ty = Ctype.Array (elt, _); addr } ->
          (* arrays decay to a pointer to their storage, no load *)
          Value.Vptr { addr; elt }
      | Some lv -> read_mem task lv
      | None -> runtime_error "unbound variable '%s'" name
    end
  | Resolve.Runary (Ast.Addr, inner) ->
      let lv = eval_lvalue task inner in
      let elt =
        match lv.ty with Ctype.Array (elt, _) -> elt | ty -> ty
      in
      Value.Vptr { addr = lv.addr; elt }
  | Resolve.Runary (Ast.Deref, inner) -> begin
      match eval task inner with
      | Value.Vptr { addr; elt } -> read_mem task { addr; ty = elt }
      | v -> runtime_error "dereference of non-pointer %s" (Value.to_string v)
    end
  | Resolve.Runary
      (((Ast.Preinc | Ast.Predec | Ast.Postinc | Ast.Postdec) as op), inner)
    ->
      let lv = eval_lvalue task inner in
      let old_v = read_mem task lv in
      let delta = if op = Ast.Preinc || op = Ast.Postinc then 1 else -1 in
      let new_v = Value.binop Ast.Add old_v (Value.Vint delta) in
      charge task 1;
      write_mem task lv new_v;
      if op = Ast.Postinc || op = Ast.Postdec then old_v else new_v
  | Resolve.Runary (op, inner) ->
      charge task 1;
      Value.unop op (eval task inner)
  | Resolve.Rbinary (Ast.Land, a, b) ->
      (* short-circuit *)
      charge task 1;
      if Value.is_truthy (eval task a) then
        Value.Vint (if Value.is_truthy (eval task b) then 1 else 0)
      else Value.Vint 0
  | Resolve.Rbinary (Ast.Lor, a, b) ->
      charge task 1;
      if Value.is_truthy (eval task a) then Value.Vint 1
      else Value.Vint (if Value.is_truthy (eval task b) then 1 else 0)
  | Resolve.Rbinary (op, a, b) ->
      let va = eval task a in
      let vb = eval task b in
      charge task (Value.binop_cycles op va vb);
      Value.binop op va vb
  | Resolve.Rassign (None, lhs, rhs) ->
      let v = eval task rhs in
      let lv = eval_lvalue task lhs in
      write_mem task lv v;
      v
  | Resolve.Rassign (Some op, lhs, rhs) ->
      let vb = eval task rhs in
      let lv = eval_lvalue task lhs in
      let va = read_mem task lv in
      charge task (Value.binop_cycles op va vb);
      let v = Value.binop op va vb in
      write_mem task lv v;
      v
  | Resolve.Rcond (c, a, b) ->
      charge task 2;
      if Value.is_truthy (eval task c) then eval task a else eval task b
  | Resolve.Rcall_user (idx, args) -> call_user task idx args
  | Resolve.Rcall_builtin (name, args, ast_args) ->
      call_builtin task name args ast_args
  | Resolve.Rindex (arr, idx) -> begin
      let base = eval task arr in
      let i = Value.as_int (eval task idx) in
      charge task 2;
      match base with
      | Value.Vptr { addr; elt } ->
          read_mem task { addr = addr + (i * Ctype.sizeof elt); ty = elt }
      | v -> runtime_error "indexing non-pointer %s" (Value.to_string v)
    end
  | Resolve.Rcast (ty, inner) -> Value.convert ty (eval task inner)
  | Resolve.Rsizeof_var (slot, name) ->
      (* sizeof does not evaluate its operand in C; approximate with the
         syntactic type when the operand is a variable *)
      let ty =
        match resolve_slot task slot name with
        | Some lv -> lv.ty
        | None -> Ctype.Int
      in
      Value.Vint (Ctype.sizeof ty)
  | Resolve.Rcomma (a, b) ->
      ignore (eval task a);
      eval task b

and eval_lvalue task (e : Resolve.rexpr) : lvalue =
  match e with
  | Resolve.Rvar (slot, name) | Resolve.Rconst_var (_, slot, name) -> begin
      match resolve_slot task slot name with
      | Some lv -> lv
      | None -> runtime_error "unbound variable '%s'" name
    end
  | Resolve.Runary (Ast.Deref, inner) -> begin
      match eval task inner with
      | Value.Vptr { addr; elt } -> { addr; ty = elt }
      | v ->
          runtime_error "dereference of non-pointer %s" (Value.to_string v)
    end
  | Resolve.Rindex (arr, idx) -> begin
      let base = eval task arr in
      let i = Value.as_int (eval task idx) in
      charge task 2;
      match base with
      | Value.Vptr { addr; elt } ->
          { addr = addr + (i * Ctype.sizeof elt); ty = elt }
      | v -> runtime_error "indexing non-pointer %s" (Value.to_string v)
    end
  | Resolve.Rcast (_, inner) -> eval_lvalue task inner
  | Resolve.Rlit _ | Resolve.Rstr _ | Resolve.Runary _ | Resolve.Rbinary _
  | Resolve.Rassign _ | Resolve.Rcond _ | Resolve.Rcall_user _
  | Resolve.Rcall_builtin _ | Resolve.Rsizeof_var _ | Resolve.Rcomma _ ->
      runtime_error "expression is not an l-value"

(* --- statements ------------------------------------------------------------ *)

and exec_stmt task (s : Resolve.rstmt) : outcome =
  match s with
  | Resolve.Rsexpr e ->
      ignore (eval task e);
      Normal
  | Resolve.Rsdecl ds ->
      List.iter (exec_decl task) ds;
      Normal
  | Resolve.Rsblock stmts -> exec_block task stmts
  | Resolve.Rsif (c, a, b) -> begin
      charge task 2;
      if Value.is_truthy (eval task c) then exec_stmt task a
      else match b with Some b -> exec_stmt task b | None -> Normal
    end
  | Resolve.Rswhile (c, body) ->
      let rec loop () =
        charge task 2;
        if Value.is_truthy (eval task c) then
          match exec_stmt task body with
          | Normal | Continued -> loop ()
          | Broke -> Normal
          | Returned v -> Returned v
        else Normal
      in
      loop ()
  | Resolve.Rsdo (body, c) ->
      let rec loop () =
        match exec_stmt task body with
        | Normal | Continued ->
            charge task 2;
            if Value.is_truthy (eval task c) then loop () else Normal
        | Broke -> Normal
        | Returned v -> Returned v
      in
      loop ()
  | Resolve.Rsfor (init, cond, step, body) ->
      (match init with
      | Resolve.Rfor_none -> ()
      | Resolve.Rfor_expr e -> ignore (eval task e)
      | Resolve.Rfor_decl ds -> List.iter (exec_decl task) ds);
      let rec loop () =
        charge task 2;
        let continue_loop =
          match cond with
          | None -> true
          | Some c -> Value.is_truthy (eval task c)
        in
        if not continue_loop then Normal
        else
          match exec_stmt task body with
          | Normal | Continued ->
              Option.iter (fun e -> ignore (eval task e)) step;
              loop ()
          | Broke -> Normal
          | Returned v -> Returned v
      in
      loop ()
  | Resolve.Rsreturn None -> Returned Value.Vvoid
  | Resolve.Rsreturn (Some e) -> Returned (eval task e)
  | Resolve.Rsbreak -> Broke
  | Resolve.Rscontinue -> Continued
  | Resolve.Rsnull -> Normal
  | Resolve.Rsat (loc, inner) ->
      (match task.proc.sh.profile with
      | None -> ()
      | Some p ->
          Scc.Profile.set_line p ~ctx:task.api.Scc.Engine.self
            task.proc.sh.line_slots.(loc));
      exec_stmt task inner

and exec_block task stmts =
  let rec go = function
    | [] -> Normal
    | s :: rest -> begin
        match exec_stmt task s with
        | Normal -> go rest
        | (Returned _ | Broke | Continued) as out -> out
      end
  in
  go stmts

and exec_decl task (d : Resolve.rdecl) =
  let lv =
    declare task ~loc:d.Resolve.rd_loc ~slot:d.Resolve.rd_slot
      d.Resolve.rd_name d.Resolve.rd_type
  in
  match d.Resolve.rd_init with
  | None -> ()
  | Some (Resolve.Rinit_expr e) ->
      let v = eval task e in
      write_mem task lv v
  | Some (Resolve.Rinit_list es) ->
      let elt =
        match d.Resolve.rd_type with
        | Ctype.Array (elt, _) -> elt
        | ty -> ty
      in
      List.iteri
        (fun i e ->
          let v = eval task e in
          write_mem task
            { addr = lv.addr + (i * Ctype.sizeof elt); ty = elt }
            v)
        es

(* --- calls ------------------------------------------------------------------ *)

and call_user task fidx args =
  let fn = task.proc.sh.resolved.Resolve.rp_funcs.(fidx) in
  if List.length args <> fn.Resolve.rf_nparams then
    runtime_error "%s expects %d arguments, got %d" fn.Resolve.rf_name
      fn.Resolve.rf_nparams (List.length args);
  let values = List.map (eval task) args in
  charge task 10;   (* call/return overhead *)
  prof_push task fidx;
  task.frames <- make_frame fn :: task.frames;
  List.iter2
    (fun (slot, pname, pty) v ->
      let lv = declare task ~slot pname pty in
      write_mem task lv v)
    fn.Resolve.rf_params values;
  let result =
    match exec_block task fn.Resolve.rf_body with
    | Returned v -> v
    | Normal | Broke | Continued -> Value.Vvoid
  in
  (match task.frames with
  | _ :: rest -> task.frames <- rest
  | [] -> ());
  prof_pop task;
  result

(* --- builtins ----------------------------------------------------------------- *)

and mini_printf task fmt values =
  (* the caller's charge may have flushed a burst that ran ahead, and
     the literal table and the output are shared *)
  take_turn task;
  let buf = Buffer.create 64 in
  let n = String.length fmt in
  let args = ref values in
  let next () =
    match !args with
    | [] -> runtime_error "printf: not enough arguments"
    | v :: rest ->
        args := rest;
        v
  in
  let i = ref 0 in
  while !i < n do
    let c = fmt.[!i] in
    if c = '%' && !i + 1 < n then begin
      (* skip width/precision flags *)
      let j = ref (!i + 1) in
      while
        !j < n
        && (match fmt.[!j] with
           | '0' .. '9' | '.' | '-' | '+' | 'l' -> true
           | _ -> false)
      do
        incr j
      done;
      if !j >= n then
        runtime_error "printf: incomplete conversion at end of format";
      (match fmt.[!j] with
      | 'd' | 'i' | 'u' | 'x' ->
          Buffer.add_string buf (string_of_int (Value.as_int (next ())))
      | 'f' | 'g' | 'e' ->
          Buffer.add_string buf (Printf.sprintf "%f" (Value.as_float (next ())))
      | 'c' ->
          Buffer.add_char buf (Char.chr (Value.as_int (next ()) land 0xff))
      | 's' -> begin
          let v = next () in
          match
            Hashtbl.find_opt task.proc.sh.string_at (Value.as_addr v)
          with
          | Some s -> Buffer.add_string buf s
          | None -> Buffer.add_string buf "<str>"
        end
      | '%' -> Buffer.add_char buf '%'
      | c -> runtime_error "printf: unsupported conversion %%%c" c);
      i := !j + 1
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.add_buffer task.proc.sh.output buf;
  Buffer.length buf

and rank_to_core task rank = rank mod task.proc.sh.ncores

and collective_shmalloc task bytes =
  let sh = task.proc.sh in
  take_turn task;
  let k = task.shm_count in
  task.shm_count <- k + 1;
  match Hashtbl.find_opt sh.shm_log k with
  | Some addr -> addr
  | None ->
      let addr =
        Scc.Memmap.alloc (Scc.Engine.memmap sh.eng) Scc.Memmap.Shared_dram
          ~bytes
      in
      Hashtbl.add sh.shm_log k addr;
      addr

(* Collective on-chip allocation: the k-th call returns the same address
   in every rank; block k lives contiguously in the MPB slice of core
   (k mod ncores).  Contiguity keeps C pointer arithmetic valid, at the
   price of capping one allocation at a slice (documented in DESIGN.md). *)
and collective_mpb_malloc task bytes =
  let sh = task.proc.sh in
  take_turn task;
  let k = task.mpb_count in
  task.mpb_count <- k + 1;
  match Hashtbl.find_opt sh.mpb_alloc_log k with
  | Some addr -> addr
  | None ->
      let owner = k mod sh.ncores in
      let addr =
        Scc.Memmap.alloc (Scc.Engine.memmap sh.eng) (Scc.Memmap.Mpb owner)
          ~bytes
      in
      Hashtbl.add sh.mpb_alloc_log k addr;
      addr

(* Sync objects are keyed by source name; ids are assigned in order of
   first dynamic use (the table size before insertion), exactly as the
   original association lists did. *)
and barrier_entry task name ~count =
  let sh = task.proc.sh in
  take_turn task;
  match Hashtbl.find_opt sh.barriers name with
  | Some entry -> entry
  | None ->
      let entry = (Hashtbl.length sh.barriers, count) in
      Hashtbl.add sh.barriers name entry;
      entry

(* RCCE flags live one copy per UE; the engine flag id combines the
   flag's index with the owning rank. *)
and rcce_flag_index task name =
  let sh = task.proc.sh in
  take_turn task;
  match Hashtbl.find_opt sh.rcce_flags name with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.length sh.rcce_flags in
      Hashtbl.add sh.rcce_flags name idx;
      idx

and rcce_flag_id task ~name ~rank =
  (rcce_flag_index task name * task.proc.sh.ncores) + rank

and mutex_lock_id task name =
  let sh = task.proc.sh in
  take_turn task;
  match Hashtbl.find_opt sh.mutexes name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length sh.mutexes in
      Hashtbl.add sh.mutexes name id;
      id

(* Release the test-and-set register behind lock [id].  Ids that share a
   register alias one lock, so holding any of them is holding it. *)
and release_lock task ~what id =
  let core = rank_to_core task id in
  let same h = rank_to_core task h = core in
  if not (Lockset.Int_set.exists same task.held_locks) then
    runtime_error "%s: lock %d is not held" what id;
  flush task;
  task.api.Scc.Engine.release core;
  task.held_locks <-
    Lockset.Int_set.filter (fun h -> not (same h)) task.held_locks

and mutex_name_of_expr = function
  | Ast.Var name -> name
  | Ast.Unary (Ast.Addr, Ast.Var name) -> name
  | Ast.Unary (Ast.Addr, Ast.Index (Ast.Var name, _)) -> name
  | _ -> "<anonymous-mutex>"

(* Builtins that name a sync object or a thread entry point inspect the
   syntactic argument, which rides along on [Rcall_builtin]. *)
and ast_arg ast_args i = List.nth ast_args i

and call_builtin task name args ast_args =
  let api = task.api in
  match name, args with
  | "printf", fmt_expr :: rest -> begin
      let fmt_v = eval task fmt_expr in
      let values = List.map (eval task) rest in
      take_turn task;
      match Hashtbl.find_opt task.proc.sh.string_at (Value.as_addr fmt_v) with
      | Some fmt ->
          charge task 1_000;
          Value.Vint (mini_printf task fmt values)
      | None -> runtime_error "printf: format is not a string literal"
    end
  | "malloc", [ size ] ->
      let bytes = Int.max 4 (Value.as_int (eval task size)) in
      charge task 200;
      Value.Vptr { addr = alloc_private task ~bytes; elt = Ctype.Void }
  | "free", [ _ ] -> Value.Vvoid
  | "exit", [ code ] -> begin
      ignore (eval task code);
      raise Thread_exit
    end
  (* --- pthreads --------------------------------------------------------- *)
  | "pthread_create", [ tid; _attr; _func; arg ] -> begin
      match
        Analysis.Thread_analysis.func_name_of_arg (ast_arg ast_args 2)
      with
      | None -> runtime_error "pthread_create: cannot resolve thread function"
      | Some fname -> begin
          match
            Hashtbl.find_opt task.proc.sh.resolved.Resolve.rp_fn_index fname
          with
          | None -> runtime_error "pthread_create: unknown function %s" fname
          | Some fidx ->
              let fn = task.proc.sh.resolved.Resolve.rp_funcs.(fidx) in
              let argv = eval task arg in
              flush task;
              let child_id =
                api.Scc.Engine.spawn_child
                  (fun child_api ->
                    let child =
                      { proc = task.proc; api = child_api;
                        frames = [ make_frame fn ];
                        pending_cycles = 0; shm_count = 0; mpb_count = 0;
                        held_locks = Lockset.Int_set.empty }
                    in
                    prof_push child fidx;
                    (try
                       List.iter
                         (fun (slot, pname, pty) ->
                           let lv = declare child ~slot pname pty in
                           write_mem child lv argv)
                         fn.Resolve.rf_params;
                       ignore (exec_block child fn.Resolve.rf_body)
                     with Thread_exit -> ());
                    flush child;
                    prof_pop child)
              in
              let tid_lv =
                eval_lvalue task (Resolve.Runary (Ast.Deref, tid))
              in
              write_mem task tid_lv (Value.Vint child_id);
              Value.Vint 0
        end
    end
  | "pthread_join", [ tid; _ ] ->
      let target = Value.as_int (eval task tid) in
      flush task;
      api.Scc.Engine.join target;
      sync_races task;
      Value.Vint 0
  | "pthread_exit", [ _ ] -> raise Thread_exit
  | "pthread_self", [] -> Value.Vint api.Scc.Engine.self
  | "pthread_barrier_init", [ _b; _attr; count ] ->
      let n = Value.as_int (eval task count) in
      ignore
        (barrier_entry task (mutex_name_of_expr (ast_arg ast_args 0))
           ~count:n);
      Value.Vint 0
  | "pthread_barrier_destroy", [ _ ] -> Value.Vint 0
  | "pthread_barrier_wait", [ _b ] ->
      let id, count =
        barrier_entry task (mutex_name_of_expr (ast_arg ast_args 0)) ~count:1
      in
      flush task;
      api.Scc.Engine.barrier_n ~id ~count;
      sync_races task;
      Value.Vint 0
  | "pthread_mutex_init", (_m :: _) ->
      ignore (mutex_lock_id task (mutex_name_of_expr (ast_arg ast_args 0)));
      Value.Vint 0
  | "pthread_mutex_destroy", [ _ ] -> Value.Vint 0
  | "pthread_mutex_lock", [ _m ] ->
      let mname = mutex_name_of_expr (ast_arg ast_args 0) in
      let id = mutex_lock_id task mname in
      (match task.proc.sh.profile with
      | None -> ()
      | Some p ->
          Scc.Profile.name_lock p ~lock:(rank_to_core task id) mname);
      flush task;
      api.Scc.Engine.acquire (rank_to_core task id);
      task.held_locks <- Lockset.Int_set.add id task.held_locks;
      Value.Vint 0
  | "pthread_mutex_unlock", [ _m ] ->
      let id = mutex_lock_id task (mutex_name_of_expr (ast_arg ast_args 0)) in
      release_lock task ~what:"pthread_mutex_unlock" id;
      Value.Vint 0
  (* --- RCCE ------------------------------------------------------------- *)
  | "RCCE_init", [ _; _ ] -> Value.Vint 0
  | "RCCE_finalize", [] -> Value.Vint 0
  | "RCCE_ue", [] -> Value.Vint task.proc.rank
  | "RCCE_num_ues", [] -> Value.Vint task.proc.sh.ncores
  | "RCCE_shmalloc", [ size ] ->
      let bytes = Int.max 4 (Value.as_int (eval task size)) in
      charge task 200;
      let k = task.shm_count in
      let addr = collective_shmalloc task bytes in
      name_region task ~base:addr ~bytes (Printf.sprintf "shmalloc#%d" k);
      Value.Vptr { addr; elt = Ctype.Void }
  | "RCCE_malloc", [ size ] ->
      let bytes = Int.max 4 (Value.as_int (eval task size)) in
      charge task 200;
      Value.Vptr
        { addr = collective_mpb_malloc task bytes; elt = Ctype.Void }
  | "RCCE_shfree", [ _ ] | "RCCE_free", [ _ ] -> Value.Vvoid
  | "RCCE_flag_alloc", [ _f ] ->
      ignore (rcce_flag_index task (mutex_name_of_expr (ast_arg ast_args 0)));
      Value.Vint 0
  | "RCCE_flag_free", [ _ ] -> Value.Vint 0
  | "RCCE_flag_write", [ _f; v; ue_expr ] ->
      let value = Value.is_truthy (eval task v) in
      let rank = Value.as_int (eval task ue_expr) in
      let id =
        rcce_flag_id task ~name:(mutex_name_of_expr (ast_arg ast_args 0))
          ~rank
      in
      flush task;
      api.Scc.Engine.flag_set ~id value;
      Value.Vint 0
  | "RCCE_wait_until", [ _f; v ] ->
      if not (Value.is_truthy (eval task v)) then
        runtime_error "RCCE_wait_until: only RCCE_FLAG_SET is supported"
      else begin
        let id =
          rcce_flag_id task ~name:(mutex_name_of_expr (ast_arg ast_args 0))
            ~rank:task.proc.rank
        in
        flush task;
        api.Scc.Engine.flag_wait ~id;
        Value.Vint 0
      end
  | "RCCE_set_frequency_divider", [ d ] ->
      let divider = Value.as_int (eval task d) in
      if divider < 2 || divider > 16 then
        runtime_error "RCCE_set_frequency_divider: divider outside 2..16"
      else begin
        flush task;
        api.Scc.Engine.set_frequency ~core:api.Scc.Engine.core
          ~mhz:(1600 / divider);
        Value.Vint 0
      end
  | "RCCE_barrier", [ _ ] ->
      flush task;
      api.Scc.Engine.barrier ();
      sync_races task;
      Value.Vint 0
  | "RCCE_acquire_lock", [ n ] ->
      let id = Value.as_int (eval task n) in
      (match task.proc.sh.profile with
      | None -> ()
      | Some p ->
          take_turn task;
          Scc.Profile.name_lock p ~lock:(rank_to_core task id)
            (Printf.sprintf "rcce-lock-%d" id));
      flush task;
      api.Scc.Engine.acquire (rank_to_core task id);
      task.held_locks <- Lockset.Int_set.add id task.held_locks;
      Value.Vint 0
  | "RCCE_release_lock", [ n ] ->
      let id = Value.as_int (eval task n) in
      release_lock task ~what:"RCCE_release_lock" id;
      Value.Vint 0
  | _, _ ->
      runtime_error "call to unknown function '%s' (%d args)" name
        (List.length args)

(* --- program setup ------------------------------------------------------- *)

(* Allocate and initialize one process's globals (load-time, untimed).
   Runs with an empty frame stack, so initializer expressions resolve
   against the globals created so far — including duplicate names, where
   each declaration re-points the canonical table slot just as
   [Hashtbl.replace] re-pointed the name. *)
let setup_globals task =
  let rp = task.proc.sh.resolved in
  Array.iter
    (fun (g : Resolve.rglobal) ->
      let ty = g.Resolve.rg_type in
      let bytes = Int.max (Ctype.sizeof ty) 4 in
      let lv = { addr = alloc_private task ~bytes; ty } in
      name_region task ~loc:g.Resolve.rg_loc ~base:lv.addr ~bytes
        g.Resolve.rg_name;
      Hashtbl.replace task.proc.globals g.Resolve.rg_name lv;
      let canonical =
        Hashtbl.find rp.Resolve.rp_global_index g.Resolve.rg_name
      in
      task.proc.global_slots.(canonical) <- Some lv;
      match g.Resolve.rg_init with
      | None -> poke task lv.addr ty (Value.zero_of ty)
      | Some (Resolve.Rinit_expr e) -> poke task lv.addr ty (eval task e)
      | Some (Resolve.Rinit_list es) ->
          let elt = match ty with Ctype.Array (e, _) -> e | ty -> ty in
          List.iteri
            (fun i e ->
              poke task (lv.addr + (i * Ctype.sizeof elt)) elt (eval task e))
            es)
    rp.Resolve.rp_globals

let make_shared ?cfg ?(strict = true) ?trace ?profile ?critpath ~detect_races
    ~ncores program =
  (* the race detector sees accesses in processing order *)
  let eng =
    Scc.Engine.create ?cfg ~strict:(strict || detect_races) ?trace ?profile
      ?critpath ()
  in
  let n = Scc.Config.n_cores (Scc.Engine.cfg eng) in
  let resolved = Resolve.resolve program in
  (* pre-intern every function and statement position, so the profiling
     hot path is an array index *)
  let fn_slots, line_slots =
    match profile with
    | None -> ([||], [||])
    | Some p ->
        ( Array.map
            (fun (f : Resolve.rfunc) -> Scc.Profile.intern p f.Resolve.rf_name)
            resolved.Resolve.rp_funcs,
          Array.map
            (fun (loc : Srcloc.t) ->
              Scc.Profile.intern_line p
                (Printf.sprintf "%s:%d" loc.Srcloc.file loc.Srcloc.line))
            resolved.Resolve.rp_locs )
  in
  {
    resolved;
    eng;
    shared_store = region_store_create ();
    private_stores = Array.init n (fun _ -> region_store_create ());
    mpb_stores = Array.init n (fun _ -> region_store_create ());
    strings = Hashtbl.create 16;
    string_at = Hashtbl.create 16;
    output = Buffer.create 256;
    mutexes = Hashtbl.create 16;
    barriers = Hashtbl.create 16;
    rcce_flags = Hashtbl.create 16;
    shm_log = Hashtbl.create 16;
    mpb_alloc_log = Hashtbl.create 16;
    ncores;
    races = (if detect_races then Some (Lockset.create ()) else None);
    profile;
    fn_slots;
    line_slots;
  }

let make_process sh ~core ~rank =
  {
    sh;
    globals = Hashtbl.create 64;
    global_slots =
      Array.make (Array.length sh.resolved.Resolve.rp_globals) None;
    core;
    rank;
  }

type result = {
  engine : Scc.Engine.t;
  output : string;
  exit_values : Value.t list;   (* per process, rank order *)
  elapsed_ps : int;
  races : Lockset.report list;  (* empty unless detection was enabled *)
}

(* Index of the program's entry function in [rp_funcs]. *)
let entry_function sh =
  let rp = sh.resolved in
  let find name = Hashtbl.find_opt rp.Resolve.rp_fn_index name in
  match find "RCCE_APP" with
  | Some i -> i
  | None -> begin
      match find "main" with
      | Some i -> i
      | None -> runtime_error "program has neither RCCE_APP nor main"
    end

(* Run the entry function in a fresh task for one process. *)
let run_entry sh proc api =
  let task =
    { proc; api; frames = []; pending_cycles = 0;
      shm_count = 0; mpb_count = 0; held_locks = Lockset.Int_set.empty }
  in
  setup_globals task;
  let fidx = entry_function sh in
  let fn = sh.resolved.Resolve.rp_funcs.(fidx) in
  prof_push task fidx;
  task.frames <- [ make_frame fn ];
  List.iter
    (fun (slot, pname, pty) ->
      let lv = declare task ~slot pname pty in
      match pty with
      | Ctype.Int -> write_mem task lv (Value.Vint 1)   (* argc *)
      | _ -> write_mem task lv (Value.Vint 0))
    fn.Resolve.rf_params;
  let v =
    try
      match exec_block task fn.Resolve.rf_body with
      | Returned v -> v
      | Normal | Broke | Continued -> Value.Vint 0
    with Thread_exit -> Value.Vint 0
  in
  flush task;
  prof_pop task;
  v

let race_reports (sh : shared) =
  match sh.races with Some d -> Lockset.reports d | None -> []

let run_pthread ?cfg ?trace ?profile ?critpath ?(detect_races = false)
    (program : Ast.program) =
  let sh =
    make_shared ?cfg ?trace ?profile ?critpath ~detect_races ~ncores:1 program
  in
  let proc = make_process sh ~core:0 ~rank:0 in
  let exit_value = ref Value.Vvoid in
  ignore
    (Scc.Engine.spawn sh.eng ~core:0 (fun api ->
         exit_value := run_entry sh proc api));
  Scc.Engine.run sh.eng;
  {
    engine = sh.eng;
    output = Buffer.contents sh.output;
    exit_values = [ !exit_value ];
    elapsed_ps = Scc.Engine.elapsed_ps sh.eng;
    races = race_reports sh;
  }

let run_rcce ?cfg ?trace ?profile ?critpath ?(detect_races = false) ~ncores
    (program : Ast.program) =
  if ncores < 1 then invalid_arg "Interp.run_rcce: ncores must be positive";
  let run ~strict =
    let sh =
      make_shared ?cfg ~strict ?trace ?profile ?critpath ~detect_races ~ncores
        program
    in
    let exit_values = Array.make ncores Value.Vvoid in
    for rank = 0 to ncores - 1 do
      let proc = make_process sh ~core:rank ~rank in
      ignore
        (Scc.Engine.spawn sh.eng ~core:rank (fun api ->
             exit_values.(rank) <- run_entry sh proc api))
    done;
    Scc.Engine.run sh.eng;
    {
      engine = sh.eng;
      output = Buffer.contents sh.output;
      exit_values = Array.to_list exit_values;
      elapsed_ps = Scc.Engine.elapsed_ps sh.eng;
      races = race_reports sh;
    }
  in
  (* a rank ran ahead past another's DVFS change or cross-core access, or
     the critical-path recorder dropped events: replay in global order,
     with the recorders as the caller created them *)
  try run ~strict:false
  with Scc.Engine.Order_conflict _ ->
    Option.iter Scc.Profile.reset profile;
    Option.iter Scc.Critpath.reset critpath;
    run ~strict:true

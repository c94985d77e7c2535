(* Deterministic discrete-event simulation engine.

   Every execution context (an RCCE process on its own core, or a Pthread
   on the shared baseline core) is an OCaml-5 effects coroutine.  The
   scheduler resumes the runnable context with the smallest local time —
   except that a context still owning its shared core's time slice is
   preferred, which is what keeps the Pthread baseline from paying a
   context switch per cache line.  Shared resources (core pipelines, the
   four memory controllers, MPB ports, test-and-set locks, the barrier)
   are therefore arbitrated in global time order and every run is
   reproducible.

   Timing model (converted to picoseconds from each component's clock):
   - compute: [n] core cycles on the context's core; when several
     contexts share a core the pipeline is a serial resource with a
     context-switch penalty per handoff and per expired quantum;
   - private DRAM: per line through L1 then L2 (tag-true LRU caches), a
     miss travelling mesh -> home memory controller (FIFO server, queuing
     delay) -> DRAM and back, plus dirty-victim writeback occupancy;
   - shared DRAM: uncacheable; every line pays the full mesh + controller
     + DRAM round trip, controllers chosen by line interleaving;
   - MPB: base access cost plus mesh round trip to the owning tile plus
     a transfer slot at the owning slice's port;
   - barriers: one gather/release, over the statically spawned contexts
     ([barrier]) or over a counted group ([barrier_n]);
   - locks: the per-core test-and-set registers, FIFO handoff.

   Block accesses are performed line-by-line from the coroutine so the
   scheduler can interleave other contexts' requests between lines — a
   context must never claim memory-controller slots in another context's
   future.

   Contexts may also be spawned *during* the run ([spawn_child], used by
   the C interpreter's pthread_create) and joined ([join]); dynamic
   contexts do not participate in the barrier group.

   Core-local run-ahead: a context alone on its core processes its
   core-local operations — compute bursts, and lines of its own core's
   private pages that hit in its L1 or L2 — in place, with no scheduling
   decision; nothing any other context reads depends on them.  It waits
   for its turn ([wait_turn]) only before an operation another context
   can observe.  Two things can still make one context's action change
   another's core-local events: a tile DVFS change and an access to
   another core's private page.  Both check whether the affected context
   already ran past them and raise [Order_conflict] if it did; the
   caller re-runs with [~strict:true].  Engines are strict unless created
   with [~strict:false], and one with a trace attached stays strict: the
   trace logs intervals, and drops them past its cap, in processing
   order.  A strict engine never runs ahead.

   Every move of a context's local clock goes through one function,
   [advance], which reports the interval once to whichever recorders
   are attached ([report]): the critical-path recorder takes every
   [Category], the trace and the profiler the busy ones.

   The profiler and the critical-path recorder do not depend on
   processing order, so they run ahead too.  Each keeps its state per
   context, and what spans contexts (lock and barrier tables, causal
   edges) is recorded at synchronization steps, which take the turn.
   Two exceptions are handled here: machine samples read global state,
   so they are taken only with a trace; and the critical-path cap drops
   events in processing order, so a run ahead that dropped any event
   raises [Order_conflict] at its end. *)

type api = {
  self : int;
  nunits : int;
  core : int;
  compute : int -> unit;            (* core cycles *)
  load : int -> bytes:int -> unit;  (* address, block size *)
  store : int -> bytes:int -> unit;
  barrier : unit -> unit;
  acquire : int -> unit;
  release : int -> unit;
  now_ps : unit -> int;
  spawn_child : (api -> unit) -> int;   (* on the caller's core *)
  join : int -> unit;
  barrier_n : id:int -> count:int -> unit;
  flag_set : id:int -> bool -> unit;
  flag_wait : id:int -> unit;
  set_frequency : core:int -> mhz:int -> unit;
  take_turn : unit -> unit;
}

type _ Effect.t +=
  | E_acquire : int -> unit Effect.t
  | E_release : int -> unit Effect.t
  | E_spawn : (api -> unit) -> int Effect.t
  | E_join : int -> unit Effect.t
  | E_set_freq : (int * int) -> unit Effect.t    (* core, MHz (whole tile) *)
  | E_flag_set : (int * bool) -> unit Effect.t   (* flag id, value *)
  | E_flag_wait : int -> unit Effect.t           (* until the flag is set *)
  | E_yield : unit Effect.t
      (* yield to the scheduler with the operation's charge already
         applied — performed by [api.compute]/[load]/[store] only when
         the in-place fast path could not prove the scheduler would
         pick this context again; [wait_turn] performs it with no
         operation to count *)

(* What a context runs when it is next resumed.  [Nothing] is a
   constant, so clearing the field allocates nothing. *)
type pending =
  | Nothing
  | Start of (unit -> unit)
  | Cont of (unit, unit) Effect.Deep.continuation

type ctx_status = Ready | Running | Parked | Finished

type ctx = {
  id : int;
  core : int;
  barrier_member : bool;    (* statically spawned: participates in barrier *)
  stats : Stats.ctx_stats;
  mutable now : int;
  mutable status : ctx_status;
  mutable pending : pending;
  mutable joiners : (ctx * (unit, unit) Effect.Deep.continuation) list;
      (* contexts blocked in [join] on this one *)
  mutable ahead : int;
      (* core-local operations run ahead since the context last held the
         turn; 0 means the scheduler would pick it right now *)
  mutable ahead_end : int;
      (* end time of the last operation run ahead; -1 before any *)
}

type proc = {
  mutable free_at : int;
  mutable last_ctx : int;
  mutable ctx_count : int;
  mutable slice_end : int;   (* absolute end of the current time slice *)
}

type lock = {
  mutable held_by : int option;
  mutable free_time : int;
  mutable free_ev : int;   (* critpath event that freed the register; -1 none *)
  waiters : (ctx * (unit, unit) Effect.Deep.continuation) Queue.t;
}

(* An MPB-resident synchronization flag (the primitive under RCCE's
   send/recv and wait_until). *)
type flag = {
  mutable value : bool;
  mutable set_time : int;
  mutable set_ev : int;    (* critpath event of the set; -1 none *)
  mutable flag_waiters : (ctx * (unit, unit) Effect.Deep.continuation) list;
}

exception Deadlock of string

exception Order_conflict of string

(* A barrier group's bookkeeping: arrivals are counted, not re-measured
   with [List.length] on every entry.  The global group of statically
   spawned contexts has a cell of its own; [barrier_n] groups are keyed
   by id. *)
type counted_barrier = {
  cb_key : int;   (* profiler key: the [barrier_n] id, -1 for the global *)
  mutable cb_arrived : int;
  mutable cb_waiters : (ctx * (unit, unit) Effect.Deep.continuation) list;
}

type _ Effect.t +=
  | E_arrive : (counted_barrier * int) -> unit Effect.t  (* cell, size *)

type t = {
  cfg : Config.t;
  mesh : Mesh.t;
  memmap : Memmap.t;
  mutable ctx_arr : ctx array;   (* growable; slots >= [n_ctx] are filler *)
  mutable n_ctx : int;
  procs : proc array;
  l1 : Cache.t array;
  l2 : Cache.t array;
  mc_free_at : int array;
  mc_busy_ps : int array;
  mc_requests : int array;
  mpb_free_at : int array;
  global_barrier : counted_barrier;
  mutable n_barrier_members : int;  (* statically spawned contexts *)
  counted_barriers : (int, counted_barrier) Hashtbl.t;
  flags : (int, flag) Hashtbl.t;
  mutable n_join_waiting : int;     (* across every context's [joiners] *)
  locks : lock array;
  mutable n_finished : int;
  mutable started : bool;
  mutable n_events : int;           (* operations processed *)
  mutable round_trips : int;        (* parked continuations resumed *)
  strict : bool;                    (* no run-ahead: global time order *)
  trace : Trace.t option;
  profile : Profile.t option;
  critpath : Critpath.t option;
  (* machine-metric sampling state; [next_sample_ps] is [max_int] unless
     both a profile and a trace are attached, so the hot path pays one
     compare *)
  mutable next_sample_ps : int;
  mutable samp_l1_hits : int;
  mutable samp_l1_misses : int;
  mutable samp_mesh_ps : int;
  mutable samp_last_ts : int;
  mc_series : string array;         (* "mc0".. sample series names *)
  core_freq_mhz : int array;   (* per-core DVFS state, tile-granular *)
  (* Per-event timing constants, precomputed so the hot path never
     divides or searches: picoseconds per core cycle (tracks DVFS),
     each core's nearest memory controller and one-way mesh times.  The
     mesh rows of a core are filled when it gets its first context
     ([cover_core]); until then they hold 0 and [||]. *)
  ps_core : int array;              (* ps per core cycle, per core *)
  mc_of : int array;                (* nearest MC index, per core *)
  mc_out_ps : int array;            (* one-way mesh ps to that MC *)
  shared_out_ps : int array array;  (* [core].(mc) one-way mesh ps *)
  core_out_ps : int array array;    (* [core].(core) one-way mesh ps *)
  mc_service_ps : int;
  dram_access_ps : int;
  mesh_transfer_ps : int;
  (* Ready-queue: one binary min-heap of (local time, ctx id) snapshots,
     with lazy deletion — an entry is live only while its context is
     still Ready at exactly the recorded time.  Keyed so that heap order
     equals the old linear scan's tie-break: smaller time first, then
     smaller context id. *)
  ready : heap;
  (* The ids of the contexts made Ready since the last scheduling
     decision, in [stash.(0 .. n_stash - 1)]; the run loop moves them
     into the heap — except the one it resumes next, which skips the
     heap entirely. *)
  mutable stash : int array;
  mutable n_stash : int;
  mutable shared_cores : int list;  (* cores with more than one context *)
}

and heap = {
  mutable hnow : int array;
  mutable hid : int array;
  mutable hlen : int;
}

let heap_make () = { hnow = Array.make 64 0; hid = Array.make 64 0; hlen = 0 }

let create ?(cfg = Config.default) ?(strict = true) ?trace ?profile ?critpath
    () =
  let n = Config.n_cores cfg in
  let mesh = Mesh.create cfg in
  (* samples read the whole machine at whatever point processing has
     reached, so only a traced, strict engine takes them; their one
     reader, the Perfetto timeline, needs the trace anyway *)
  let sampled = match trace with None -> None | Some _ -> profile in
  {
    cfg;
    mesh;
    memmap = Memmap.create cfg;
    ctx_arr = [||];
    n_ctx = 0;
    procs =
      Array.init n (fun _ ->
          { free_at = 0; last_ctx = -1; ctx_count = 0; slice_end = 0 });
    l1 =
      Array.init n (fun _ ->
          Cache.create ~size_bytes:cfg.Config.l1_bytes
            ~line_bytes:cfg.Config.line_bytes ~assoc:cfg.Config.l1_assoc);
    l2 =
      Array.init n (fun _ ->
          Cache.create ~size_bytes:cfg.Config.l2_bytes
            ~line_bytes:cfg.Config.line_bytes ~assoc:cfg.Config.l2_assoc);
    mc_free_at = Array.make cfg.Config.n_mcs 0;
    mc_busy_ps = Array.make cfg.Config.n_mcs 0;
    mc_requests = Array.make cfg.Config.n_mcs 0;
    mpb_free_at = Array.make n 0;
    global_barrier = { cb_key = -1; cb_arrived = 0; cb_waiters = [] };
    n_barrier_members = 0;
    counted_barriers = Hashtbl.create 8;
    flags = Hashtbl.create 16;
    n_join_waiting = 0;
    locks =
      Array.init n (fun _ ->
          { held_by = None; free_time = 0; free_ev = -1;
            waiters = Queue.create () });
    n_finished = 0;
    started = false;
    n_events = 0;
    round_trips = 0;
    strict = strict || trace <> None;
    trace;
    profile;
    critpath;
    next_sample_ps =
      (match sampled with
      | None -> max_int
      | Some p -> Profile.sample_interval_ps p);
    samp_l1_hits = 0;
    samp_l1_misses = 0;
    samp_mesh_ps = 0;
    samp_last_ts = 0;
    mc_series =
      (match sampled with
      | None -> [||]
      | Some _ -> Array.init cfg.Config.n_mcs (Printf.sprintf "mc%d"));
    core_freq_mhz = Array.make n cfg.Config.core_freq_mhz;
    ps_core = Array.make n (Config.ps_per_cycle cfg.Config.core_freq_mhz);
    mc_of = Array.make n 0;
    mc_out_ps = Array.make n 0;
    shared_out_ps = Array.make n [||];
    core_out_ps = Array.make n [||];
    mc_service_ps = Config.dram_cycles_ps cfg cfg.Config.mc_service_cycles;
    dram_access_ps = Config.dram_cycles_ps cfg cfg.Config.dram_access_cycles;
    mesh_transfer_ps =
      Config.mesh_cycles_ps cfg cfg.Config.mesh_cycles_per_hop;
    ready = heap_make ();
    stash = Array.make 16 0;
    n_stash = 0;
    shared_cores = [];
  }

let cfg t = t.cfg

let trace t = t.trace

let profile t = t.profile

let critpath t = t.critpath

(* One machine-metric sample at simulated time [now]: L1 hit rate, memory
   controller queue depths and mesh link utilization, each measured over
   the window since the previous sample. *)
let take_samples t p now =
  let hits = ref 0 and misses = ref 0 in
  Array.iter
    (fun c ->
      hits := !hits + Cache.hits c;
      misses := !misses + Cache.misses c)
    t.l1;
  let dh = !hits - t.samp_l1_hits and dm = !misses - t.samp_l1_misses in
  t.samp_l1_hits <- !hits;
  t.samp_l1_misses <- !misses;
  let rate =
    if dh + dm = 0 then 1.0 else float_of_int dh /. float_of_int (dh + dm)
  in
  Profile.sample p ~ts:now ~name:"l1 hit rate" ~series:[ ("rate", rate) ];
  let depths = ref [] in
  for mc = Array.length t.mc_free_at - 1 downto 0 do
    let free_at = t.mc_free_at.(mc) in
    let depth =
      if free_at > now then
        float_of_int (free_at - now) /. float_of_int t.mc_service_ps
      else 0.0
    in
    depths := (t.mc_series.(mc), depth) :: !depths
  done;
  Profile.sample p ~ts:now ~name:"mc queue depth" ~series:!depths;
  let window = now - t.samp_last_ts in
  let mesh_ps = ref 0 in
  for i = 0 to t.n_ctx - 1 do
    mesh_ps := !mesh_ps + t.ctx_arr.(i).stats.Stats.mesh_ps
  done;
  let dmesh = !mesh_ps - t.samp_mesh_ps in
  t.samp_mesh_ps <- !mesh_ps;
  let util =
    if window <= 0 then 0.0
    else float_of_int dmesh /. float_of_int window
  in
  Profile.sample p ~ts:now ~name:"mesh utilization"
    ~series:[ ("links-busy", util) ];
  t.samp_last_ts <- now;
  t.next_sample_ps <- now + Profile.sample_interval_ps p

(* The event a cross-context wait is enabled by: [ctx]'s latest
   critical-path event, -1 with no recorder. *)
let last_event t ctx =
  match t.critpath with
  | None -> -1
  | Some cp -> Critpath.last_event cp ~ctx

(* Report the interval [start_ps, end_ps) of [ctx]'s clock once, to
   every attached recorder: the critical-path recorder takes every
   category, with [pred], the event the interval causally waited on,
   and the profiler's current frame; the trace and the profiler take
   the busy ones. *)
let report t ctx ~cat ~pred ~start_ps ~end_ps =
  (match t.trace with
  | Some tr when cat < Category.n_busy ->
      Trace.record tr ~ctx:ctx.id ~core:ctx.core ~start_ps ~end_ps cat
  | _ -> ());
  (match t.critpath with
  | None -> ()
  | Some cp ->
      let fn, line =
        match t.profile with
        | None -> (0, 0)
        | Some p ->
            ( Profile.current_fn_slot p ~ctx:ctx.id,
              Profile.current_line_slot p ~ctx:ctx.id )
      in
      Critpath.record cp ~ctx:ctx.id ~core:ctx.core ~cat
        ~dur:(end_ps - start_ps) ~end_ps ~fn ~line ~pred);
  match t.profile with
  | Some p when cat < Category.n_busy ->
      Profile.charge p ~ctx:ctx.id ~cat (end_ps - start_ps);
      if end_ps >= t.next_sample_ps then take_samples t p end_ps
  | _ -> ()

(* The one place a context's local clock moves: forward to [until],
   reported once as [cat]. *)
let advance t ctx ~cat ~pred until =
  let start_ps = ctx.now in
  ctx.now <- until;
  report t ctx ~cat ~pred ~start_ps ~end_ps:until

let memmap t = t.memmap
let mesh t = t.mesh

let n_ctxs t = t.n_ctx

let events t = t.n_events

let round_trips t = t.round_trips

(* --- the ready heap ------------------------------------------------------ *)

(* The key (time, ctx id) is a strict total order: with distinct context
   ids no two live keys compare equal, so a heap's minimum is unique and
   pop order is independent of insertion order — the property that keeps
   scheduling bit-identical to the old fold over the context array, and
   that lets [heap_pick] put a parked context in the root's slot instead
   of pushing it and popping the minimum.  The sifts move entries into a
   hole rather than swapping, and like every step of the pick path they
   allocate nothing. *)
let[@inline] key_less (now : int) (id : int) now' id' =
  now < now' || (now = now' && id < id')

let heap_push h ~now ~id =
  let cap = Array.length h.hnow in
  if h.hlen = cap then begin
    let bigger_now = Array.make (2 * cap) 0 in
    let bigger_id = Array.make (2 * cap) 0 in
    Array.blit h.hnow 0 bigger_now 0 cap;
    Array.blit h.hid 0 bigger_id 0 cap;
    h.hnow <- bigger_now;
    h.hid <- bigger_id
  end;
  let hnow = h.hnow and hid = h.hid in
  let i = ref h.hlen and placed = ref false in
  h.hlen <- h.hlen + 1;
  while not !placed do
    if !i = 0 then placed := true
    else begin
      let parent = (!i - 1) / 2 in
      if key_less now id hnow.(parent) hid.(parent) then begin
        hnow.(!i) <- hnow.(parent);
        hid.(!i) <- hid.(parent);
        i := parent
      end
      else placed := true
    end
  done;
  hnow.(!i) <- now;
  hid.(!i) <- id

(* Put (now, id) in the root's slot, dropping the root's entry, and sift
   it down among the first [hlen] entries. *)
let heap_replace_root h ~now ~id =
  let hnow = h.hnow and hid = h.hid and len = h.hlen in
  let i = ref 0 and placed = ref false in
  while not !placed do
    let l = (2 * !i) + 1 in
    if l >= len then placed := true
    else begin
      let r = l + 1 in
      let c =
        if r < len && key_less hnow.(r) hid.(r) hnow.(l) hid.(l) then r else l
      in
      if key_less hnow.(c) hid.(c) now id then begin
        hnow.(!i) <- hnow.(c);
        hid.(!i) <- hid.(c);
        i := c
      end
      else placed := true
    end
  done;
  hnow.(!i) <- now;
  hid.(!i) <- id

(* Remove the root; the caller reads it first. *)
let heap_pop_root h =
  let last = h.hlen - 1 in
  h.hlen <- last;
  if last > 0 then heap_replace_root h ~now:h.hnow.(last) ~id:h.hid.(last)

(* Drop stale roots until the root is live (the context is still Ready at
   exactly the recorded time); the heap's live minimum is then at the
   root.  Returns false when the heap ran empty. *)
let rec heap_settle t h =
  h.hlen > 0
  &&
  let c = t.ctx_arr.(h.hid.(0)) in
  (c.status = Ready && c.now = h.hnow.(0))
  || begin
    heap_pop_root h;
    heap_settle t h
  end

(* Record that [ctx] is runnable at its current local time.  The context
   is stashed rather than pushed: the run loop pushes stashed contexts
   into the heap, except a slice owner it resumes next, and the last one
   stashed (usually the context that just yielded), which [heap_pick]
   compares with the heap's root instead. *)
let ready_enqueue t ctx =
  let n = t.n_stash in
  if n = Array.length t.stash then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit t.stash 0 bigger 0 n;
    t.stash <- bigger
  end;
  t.stash.(n) <- ctx.id;
  t.n_stash <- n + 1

let no_ctx : ctx =
  { id = -1; core = 0; barrier_member = false;
    stats = Stats.create_ctx (); now = 0; status = Finished;
    pending = Nothing; joiners = []; ahead = 0; ahead_end = -1 }

(* Fill [core]'s nearest-MC, MC-distance and core-distance rows.  A
   context never changes core, and every lookup ([private_line],
   [shared_line], [mpb_line]) is made with the accessing context's own
   core, so the rows of a core with no context are never read. *)
let cover_core t core =
  let mesh = t.mesh in
  let to_mc =
    Array.init t.cfg.Config.n_mcs (fun mc ->
        Mesh.traverse_ps mesh ~hops:(Mesh.hops_core_to_mc mesh ~core ~mc))
  in
  let mc = Mesh.mc_of_core mesh core in
  t.mc_of.(core) <- mc;
  t.mc_out_ps.(core) <- to_mc.(mc);
  t.shared_out_ps.(core) <- to_mc;
  t.core_out_ps.(core) <-
    Array.init (Config.n_cores t.cfg) (fun to_core ->
        Mesh.traverse_ps mesh
          ~hops:(Mesh.hops_core_to_core mesh ~from_core:core ~to_core))

let add_ctx t ~core ~barrier_member ~now =
  if core < 0 || core >= Config.n_cores t.cfg then
    invalid_arg "Engine: core out of range";
  let ctx =
    { id = t.n_ctx; core; barrier_member; stats = Stats.create_ctx ();
      now; status = Ready; pending = Nothing; joiners = []; ahead = 0;
      ahead_end = -1 }
  in
  let cap = Array.length t.ctx_arr in
  if t.n_ctx = cap then begin
    (* amortized-O(1) growth; the fresh context doubles as filler for the
       slots beyond [n_ctx], which are never read *)
    let bigger = Array.make (Int.max 8 (2 * cap)) ctx in
    Array.blit t.ctx_arr 0 bigger 0 t.n_ctx;
    t.ctx_arr <- bigger
  end;
  t.ctx_arr.(t.n_ctx) <- ctx;
  t.n_ctx <- t.n_ctx + 1;
  if barrier_member then t.n_barrier_members <- t.n_barrier_members + 1;
  let proc = t.procs.(core) in
  proc.ctx_count <- proc.ctx_count + 1;
  if proc.ctx_count = 1 then cover_core t core;
  if proc.ctx_count = 2 then t.shared_cores <- core :: t.shared_cores;
  ready_enqueue t ctx;
  ctx

(* --- timing helpers ----------------------------------------------------- *)

let cc t n = Config.core_cycles_ps t.cfg n

(* Core cycles at the context's core's *current* frequency — the SCC's
   DVFS changes per-domain clocks at run time (section 5.1). *)
let ccx t ctx n = n * t.ps_core.(ctx.core)

(* Acquire the context's core pipeline: returns the issue time of the
   next operation, honouring the serial core resource and the
   context-switch penalty when the core is shared.  Advances [ctx.now] to
   the issue time so latency computations (memory-controller queuing in
   particular) start from when the operation actually issues; the delay
   — core busy with another context plus the switch penalty — is
   scheduler wait, enabled by the previous owner's last event. *)
let acquire_processor t ctx =
  let proc = t.procs.(ctx.core) in
  let start = Int.max ctx.now proc.free_at in
  let start =
    if proc.ctx_count > 1 && proc.last_ctx <> ctx.id then begin
      ctx.stats.Stats.context_switches <-
        ctx.stats.Stats.context_switches + 1;
      let start = start + ccx t ctx t.cfg.Config.context_switch_cycles in
      proc.slice_end <- start + ccx t ctx t.cfg.Config.quantum_cycles;
      start
    end
    else start
  in
  if start > ctx.now then begin
    let prev = proc.last_ctx in
    advance t ctx ~cat:Category.sched_wait start
      ~pred:(if prev >= 0 && prev <> ctx.id then last_event t prev else -1)
  end;
  proc.last_ctx <- ctx.id;
  start

(* Hold the core from the issue time until [until], charged as [cat]. *)
let occupy_processor t ctx ~cat ~until =
  t.procs.(ctx.core).free_at <- until;
  advance t ctx ~cat ~pred:(-1) until

(* A pure-compute burst of [dur] picoseconds.  On a shared core the OS
   preempts every quantum, so a long burst pays a switch per expired time
   slice — keeping the Pthread baseline's overhead independent of how
   coarsely workloads batch their compute effects. *)
let charge_compute t ctx dur =
  let proc = t.procs.(ctx.core) in
  let start = acquire_processor t ctx in
  let dur =
    if proc.ctx_count > 1 then begin
      let quantum_ps = ccx t ctx t.cfg.Config.quantum_cycles in
      let switch_ps = ccx t ctx t.cfg.Config.context_switch_cycles in
      let slices = dur / quantum_ps in
      ctx.stats.Stats.context_switches <-
        ctx.stats.Stats.context_switches + slices;
      dur + (slices * switch_ps)
    end
    else dur
  in
  occupy_processor t ctx ~cat:Category.compute ~until:(start + dur)

(* The slice-owner scans of [fast_self_pick], walking [shared_cores]
   with no closure.  A core's slice owner is eligible while it is Ready
   within its slice. *)
let rec no_eligible_slice_owner t = function
  | [] -> true
  | core :: cores ->
      (let p = t.procs.(core) in
       p.last_ctx < 0
       ||
       let c = t.ctx_arr.(p.last_ctx) in
       c.status <> Ready || c.now > p.slice_end)
      && no_eligible_slice_owner t cores

(* ... and [ctx], a slice owner, beats every other eligible one on
   (time, id). *)
let rec beats_slice_owners t ctx = function
  | [] -> true
  | core :: cores ->
      (core = ctx.core
      ||
      let p = t.procs.(core) in
      p.last_ctx < 0
      ||
      let c = t.ctx_arr.(p.last_ctx) in
      c.status <> Ready || c.now > p.slice_end
      || key_less ctx.now ctx.id c.now c.id)
      && beats_slice_owners t ctx cores

(* Would the run loop, with [ctx] parked ready right now, pick [ctx]
   again as the very next context?  This emulates the scheduling
   decision exactly — slice owners always outrank heap contexts, and
   ties break on (local time, ctx id) — so continuing [ctx] in place
   preserves the event order bit for bit.  The check is conservative in
   one place only: it requires the ready-stash to be empty and, when
   [ctx] is alone on its core, compares against the *settled* heap root.
   Stale roots always carry an earlier snapshot time than their
   context's true time, so settling (which the real pick also does)
   never changes the answer; a [false] merely forfeits the shortcut,
   never correctness. *)
let fast_self_pick t ctx =
  t.n_stash = 0
  &&
  let proc = t.procs.(ctx.core) in
  if proc.ctx_count > 1 then
    (* shared core: [ctx] must still own its slice and beat every other
       eligible slice owner on (time, id) — mirrors [slice_pick] *)
    proc.last_ctx = ctx.id
    && ctx.now <= proc.slice_end
    && beats_slice_owners t ctx t.shared_cores
  else
    (* [ctx] alone on its core: no slice owner anywhere may be eligible
       (they would outrank it), and it must beat the heap's live
       minimum — mirrors [slice_pick] + [heap_pick] *)
    no_eligible_slice_owner t t.shared_cores
    &&
    let h = t.ready in
    (not (heap_settle t h)) || key_less ctx.now ctx.id h.hnow.(0) h.hid.(0)

(* A lone context takes its turn anyway after this many operations run
   ahead, so a spin on a private location that only another core writes
   still lets the writer run and the conflict surface. *)
let run_ahead_limit = 65_536

(* In a non-strict engine, may [ctx] process its core-local operations
   in place?  Only another context on the same core could see them, and
   a context can only gain a core-mate by spawning one itself, which
   takes its turn first. *)
let[@inline] runs_ahead t ctx = t.procs.(ctx.core).ctx_count = 1

(* Wait until the scheduler would pick [ctx]: called before anything
   another context can observe.  A context that has not run ahead since
   it last held the turn still holds it. *)
let wait_turn t ctx =
  if ctx.ahead > 0 then begin
    ctx.ahead <- 0;
    if not (fast_self_pick t ctx) then begin
      (* the resume that follows processes no operation *)
      t.n_events <- t.n_events - 1;
      Effect.perform E_yield
    end
  end

(* Account for one core-local operation processed in place. *)
let ran_ahead t ctx =
  t.n_events <- t.n_events + 1;
  ctx.ahead <- ctx.ahead + 1;
  ctx.ahead_end <- ctx.now;
  if ctx.ahead >= run_ahead_limit then wait_turn t ctx

(* [ctx], holding the turn, is about to change what the core-local
   operations of contexts on cores [lo..hi] read.  Any of them whose
   last operation run ahead ended after [ctx]'s current point saw the
   old state: a program reads or writes a load's or store's cells when
   the operation returns, which in a strict engine is its end.  (A
   frequency change alters only operations that start after it, so for
   DVFS the end is conservative: at worst a needless strict re-run.)  On
   a shared core [ctx] may be a slice owner, running ahead of contexts
   that wait in the heap in global order too, so its time bounds
   nothing: any run-ahead there counts.  Contexts on [ctx]'s own core
   ran ahead only before it was shared. *)
let check_conflict t ctx ~lo ~hi what =
  let sliced = t.procs.(ctx.core).ctx_count > 1 in
  for i = 0 to t.n_ctx - 1 do
    let x = t.ctx_arr.(i) in
    if x.core <> ctx.core && x.core >= lo && x.core <= hi
       && x.ahead_end >= 0
       && (sliced || x.ahead_end > ctx.now
           || (x.ahead_end = ctx.now && x.id > ctx.id))
    then
      raise
        (Order_conflict
           (Printf.sprintf
              "%s by context %d at %d ps: context %d on core %d already \
               ran ahead to %d ps"
              what ctx.id ctx.now x.id x.core x.ahead_end))
  done

(* --- memory system ------------------------------------------------------ *)

(* Round trip to a memory controller for one line, with FIFO queuing.
   Returns the completion time of the data return. *)
let mc_round_trip t ~mc ~arrive =
  let service = t.mc_service_ps in
  let start = Int.max arrive t.mc_free_at.(mc) in
  t.mc_free_at.(mc) <- start + service;
  t.mc_busy_ps.(mc) <- t.mc_busy_ps.(mc) + service;
  t.mc_requests.(mc) <- t.mc_requests.(mc) + 1;
  start + service + t.dram_access_ps

(* A cacheable private-DRAM access of one line. *)
let private_line t ctx ~write addr =
  let cs = ctx.stats in
  let r1 = Cache.access_code t.l1.(ctx.core) ~write addr in
  if r1 = Cache.hit then begin
    cs.Stats.l1_hits <- cs.Stats.l1_hits + 1;
    ccx t ctx t.cfg.Config.l1_hit_cycles
  end
  else begin
    cs.Stats.l1_misses <- cs.Stats.l1_misses + 1;
    let r2 = Cache.access_code t.l2.(ctx.core) ~write:false addr in
    if r2 = Cache.hit then begin
      cs.Stats.l2_hits <- cs.Stats.l2_hits + 1;
      ccx t ctx (t.cfg.Config.l1_hit_cycles + t.cfg.Config.l2_hit_cycles)
    end
    else begin
      (* the memory controllers are shared: the probe above was
         core-local, the round trip is not *)
      wait_turn t ctx;
      cs.Stats.l2_misses <- cs.Stats.l2_misses + 1;
      cs.Stats.private_dram_lines <- cs.Stats.private_dram_lines + 1;
      let mc = t.mc_of.(ctx.core) in
      let out = t.mc_out_ps.(ctx.core) in
      cs.Stats.mesh_ps <- cs.Stats.mesh_ps + (2 * out);
      let base = ccx t ctx t.cfg.Config.dram_base_cycles in
      let arrive = ctx.now + base + out in
      let back = mc_round_trip t ~mc ~arrive in
      (* dirty victim writeback occupies the controller but does not
         block the core *)
      if r1 = Cache.miss_evict_dirty || r2 = Cache.miss_evict_dirty
      then begin
        let service = t.mc_service_ps in
        t.mc_free_at.(mc) <- t.mc_free_at.(mc) + service;
        t.mc_busy_ps.(mc) <- t.mc_busy_ps.(mc) + service
      end;
      back + out - ctx.now
    end
  end

(* An uncacheable shared-DRAM access of one line: full round trip every
   time; controllers are line-interleaved so heavy traffic spreads over
   all four and still saturates them at high core counts.  With
   [posted_shared_writes], a store retires after the issue cost while its
   controller occupancy is still booked (the SCC's write-combine
   buffer). *)
let shared_line t ctx ~write addr =
  let cs = ctx.stats in
  cs.Stats.shared_dram_lines <- cs.Stats.shared_dram_lines + 1;
  if write then cs.Stats.shared_dram_stores <- cs.Stats.shared_dram_stores + 1
  else cs.Stats.shared_dram_loads <- cs.Stats.shared_dram_loads + 1;
  let line = Memmap.offset_of_addr addr / t.cfg.Config.line_bytes in
  let mc = line mod t.cfg.Config.n_mcs in
  let out = t.shared_out_ps.(ctx.core).(mc) in
  cs.Stats.mesh_ps <- cs.Stats.mesh_ps + (2 * out);
  let base = ccx t ctx t.cfg.Config.dram_base_cycles in
  let arrive = ctx.now + base + out in
  let back = mc_round_trip t ~mc ~arrive in
  if write && t.cfg.Config.posted_shared_writes then base + out
  else back + out - ctx.now

(* An MPB access of one line: base cost, mesh round trip to the owning
   tile, one transfer slot at the owning slice's port. *)
let mpb_line t ctx ~write:_ ~owner _addr =
  let cs = ctx.stats in
  cs.Stats.mpb_lines <- cs.Stats.mpb_lines + 1;
  let out = t.core_out_ps.(ctx.core).(owner) in
  cs.Stats.mesh_ps <- cs.Stats.mesh_ps + (2 * out);
  let base = ccx t ctx t.cfg.Config.mpb_base_cycles in
  let transfer = t.mesh_transfer_ps in
  let arrive = ctx.now + base + out in
  let start = Int.max arrive t.mpb_free_at.(owner) in
  t.mpb_free_at.(owner) <- start + transfer;
  start + transfer + out - ctx.now

(* One line's worth of memory access: issue when the core is free (the
   latency functions measure queuing from the true issue time), then
   block the core for the round trip (in-order P54C, no overlap). *)
let charge_access t ctx ~write addr =
  let cs = ctx.stats in
  if write then cs.Stats.stores <- cs.Stats.stores + 1
  else cs.Stats.loads <- cs.Stats.loads + 1;
  let before = ctx.now in
  let start = acquire_processor t ctx in
  (* decode the region inline — the [Memmap.region] variant would box
     the owning core on every access *)
  let kind = (addr lsr 40) land 0x3 in
  let dur =
    match kind with
    | 0 -> private_line t ctx ~write addr
    | 1 -> shared_line t ctx ~write addr
    | 2 -> mpb_line t ctx ~write ~owner:((addr lsr 32) land 0xff) addr
    | _ -> invalid_arg "Engine.charge_access: bad address"
  in
  occupy_processor t ctx ~until:(start + dur)
    ~cat:
      (match kind with
      | 0 -> Category.mem_private
      | 1 -> Category.mem_shared
      | _ -> Category.mem_mpb);
  cs.Stats.mem_stall_ps <- cs.Stats.mem_stall_ps + (ctx.now - before)

(* --- synchronization ---------------------------------------------------- *)

let barrier_cost t = cc t t.cfg.Config.mpb_base_cycles

(* Release every waiter of a full barrier at the propagation time.
   [key] identifies the barrier for the profiler's imbalance table: a
   counted-barrier id, or [-1] for the global barrier. *)
let release_barrier_waiters t ~key waiters =
  let release =
    List.fold_left (fun acc (c, _) -> Int.max acc c.now) 0 waiters
    + barrier_cost t
  in
  (match t.profile with
  | None -> ()
  | Some p ->
      let first =
        List.fold_left (fun acc (c, _) -> Int.min acc c.now) max_int waiters
      in
      let last = release - barrier_cost t in
      Profile.barrier_episode p ~key ~spread_ps:(Int.max 0 (last - first)));
  (* every waiter's release is enabled by the last arriver: capture its
     latest event before the release intervals overwrite the cursors *)
  let pred =
    match t.critpath with
    | None -> -1
    | Some _ ->
        let last_arriver =
          List.fold_left
            (fun acc (c, _) ->
              if acc == no_ctx || c.now > acc.now
                 || (c.now = acc.now && c.id < acc.id)
              then c
              else acc)
            no_ctx waiters
        in
        if last_arriver == no_ctx then -1 else last_event t last_arriver.id
  in
  List.iter
    (fun (c, k) ->
      c.stats.Stats.barrier_wait_ps <-
        c.stats.Stats.barrier_wait_ps + (release - c.now);
      advance t c ~cat:Category.barrier_wait ~pred release;
      c.status <- Ready;
      c.pending <- Cont k;
      ready_enqueue t c)
    waiters

let park_ready t ctx k =
  ctx.status <- Ready;
  ctx.pending <- Cont k;
  ready_enqueue t ctx

(* The cell of [barrier_n] group [id] (pthread_barrier_t instances,
   sub-groups). *)
let counted_barrier t id =
  match Hashtbl.find_opt t.counted_barriers id with
  | Some cell -> cell
  | None ->
      let cell = { cb_key = id; cb_arrived = 0; cb_waiters = [] } in
      Hashtbl.replace t.counted_barriers id cell;
      cell

(* [ctx] arrives at a barrier of [count] members: the last arrival
   releases the group, every other one parks. *)
let arrive t ctx cell ~count k =
  if count < 1 then invalid_arg "Engine: barrier group must be positive";
  cell.cb_waiters <- (ctx, k) :: cell.cb_waiters;
  cell.cb_arrived <- cell.cb_arrived + 1;
  if cell.cb_arrived >= count then begin
    release_barrier_waiters t ~key:cell.cb_key cell.cb_waiters;
    cell.cb_waiters <- [];
    cell.cb_arrived <- 0
  end
  else begin
    ctx.status <- Parked;
    ctx.pending <- Cont k
  end

let get_flag t id =
  match Hashtbl.find_opt t.flags id with
  | Some f -> f
  | None ->
      let f = { value = false; set_time = 0; set_ev = -1; flag_waiters = [] } in
      Hashtbl.replace t.flags id f;
      f

(* Writing a flag costs an MPB access; a set wakes every waiter at the
   propagation time. *)
let do_flag_set t ctx id value k =
  let f = get_flag t id in
  advance t ctx ~cat:Category.sync ~pred:(-1)
    (ctx.now + ccx t ctx t.cfg.Config.mpb_base_cycles);
  f.set_ev <- last_event t ctx.id;
  f.value <- value;
  f.set_time <- ctx.now;
  if value then begin
    List.iter
      (fun (w, wk) ->
        advance t w ~cat:Category.sync ~pred:f.set_ev
          (Int.max w.now ctx.now + ccx t w t.cfg.Config.mpb_base_cycles);
        w.status <- Ready;
        w.pending <- Cont wk;
        ready_enqueue t w)
      f.flag_waiters;
    f.flag_waiters <- []
  end;
  park_ready t ctx k

let do_flag_wait t ctx id k =
  let f = get_flag t id in
  if f.value then begin
    advance t ctx ~cat:Category.sync ~pred:f.set_ev
      (Int.max ctx.now f.set_time + ccx t ctx t.cfg.Config.mpb_base_cycles);
    park_ready t ctx k
  end
  else begin
    ctx.status <- Parked;
    ctx.pending <- Cont k;
    f.flag_waiters <- (ctx, k) :: f.flag_waiters
  end

(* Test-and-set register access cost: a round trip to the register's
   core. *)
let lock_cost t ctx lock_id =
  let hops =
    Mesh.hops_core_to_core t.mesh ~from_core:ctx.core ~to_core:lock_id
  in
  ccx t ctx t.cfg.Config.mpb_base_cycles
  + (2 * Mesh.traverse_ps t.mesh ~hops)

let do_acquire t ctx lock_id k =
  let lock = t.locks.(lock_id) in
  match lock.held_by with
  | None ->
      lock.held_by <- Some ctx.id;
      (* uncontended: the test-and-set round trip, plus any wait for the
         register to come free after the previous release *)
      advance t ctx ~cat:Category.sync
        ~pred:(if lock.free_time > ctx.now then lock.free_ev else -1)
        (Int.max ctx.now lock.free_time + lock_cost t ctx lock_id);
      (match t.profile with
      | None -> ()
      | Some p ->
          Profile.lock_acquired p ~lock:lock_id ~wait_ps:0 ~holder:(-1));
      ctx.status <- Ready;
      ctx.pending <- Cont k;
      ready_enqueue t ctx
  | Some _ ->
      ctx.status <- Parked;
      ctx.pending <- Cont k;
      Queue.add (ctx, k) lock.waiters

let do_release t ctx lock_id k =
  let lock = t.locks.(lock_id) in
  (match lock.held_by with
  | Some owner when owner = ctx.id -> ()
  | Some _ | None ->
      invalid_arg
        (Printf.sprintf
           "Engine: context %d releases lock %d it does not hold" ctx.id
           lock_id));
  (* the releaser's register round trip, then remember the release event:
     it is the holder edge for whoever wakes (or next acquires) *)
  advance t ctx ~cat:Category.sync ~pred:(-1)
    (ctx.now + lock_cost t ctx lock_id);
  lock.free_time <- ctx.now;
  lock.free_ev <- last_event t ctx.id;
  (match Queue.take_opt lock.waiters with
  | None -> lock.held_by <- None
  | Some (waiter, wk) ->
      lock.held_by <- Some waiter.id;
      let wake =
        Int.max waiter.now lock.free_time + lock_cost t waiter lock_id
      in
      let wait_ps = wake - waiter.now in
      waiter.stats.Stats.lock_wait_ps <-
        waiter.stats.Stats.lock_wait_ps + wait_ps;
      advance t waiter ~cat:Category.lock_wait ~pred:lock.free_ev wake;
      (match t.profile with
      | None -> ()
      | Some p ->
          Profile.lock_acquired p ~lock:lock_id ~wait_ps ~holder:ctx.id);
      waiter.status <- Ready;
      waiter.pending <- Cont wk;
      ready_enqueue t waiter);
  ctx.status <- Ready;
  ctx.pending <- Cont k;
  ready_enqueue t ctx

let finish_ctx t ctx =
  ctx.status <- Finished;
  ctx.stats.Stats.finish_ps <- ctx.now;
  t.n_finished <- t.n_finished + 1;
  (* wake joiners, recorded on the finished context itself *)
  List.iter
    (fun (waiter, k) ->
      t.n_join_waiting <- t.n_join_waiting - 1;
      advance t waiter ~cat:Category.sync ~pred:(last_event t ctx.id)
        (Int.max waiter.now ctx.now);
      waiter.status <- Ready;
      waiter.pending <- Cont k;
      ready_enqueue t waiter)
    ctx.joiners;
  ctx.joiners <- []

(* --- the scheduler ------------------------------------------------------ *)

(* Cost of creating a process/thread context, charged to the parent. *)
let spawn_cost_cycles = 2_000

let rec handler t ctx : (unit, unit) Effect.Deep.handler =
  (* One yield receiver per context, allocated once: the performer
     checked [fast_self_pick] before suspending and nothing mutates
     between that check and this park, so a performed [E_yield] always
     means "some other context must run next". *)
  let park : (unit, unit) Effect.Deep.continuation -> unit =
   fun k -> park_ready t ctx k
  in
  let park_opt = Some park in
  {
    Effect.Deep.retc = (fun () -> finish_ctx t ctx);
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | E_yield ->
            (* the performer ([api.compute]/[load]/[store]) already
               applied the operation's charge; this is pure scheduling *)
            park_opt
        | E_arrive (cell, count) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                arrive t ctx cell ~count k)
        | E_acquire lock_id ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                do_acquire t ctx lock_id k)
        | E_release lock_id ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                do_release t ctx lock_id k)
        | E_spawn program ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let dur = ccx t ctx spawn_cost_cycles in
                ctx.stats.Stats.compute_ps <-
                  ctx.stats.Stats.compute_ps + dur;
                charge_compute t ctx dur;
                let child = add_ctx t ~core:ctx.core ~barrier_member:false
                              ~now:ctx.now in
                (* the child starts at its parent's time and is idle from
                   t=0 until then: pad it so its accounting also sums to
                   the wall *)
                report t child ~cat:Category.idle ~pred:(last_event t ctx.id)
                  ~start_ps:0 ~end_ps:child.now;
                let api = make_api t child in
                child.pending <-
                  Start (fun () -> run_body t child program api);
                Effect.Deep.continue k child.id)
        | E_set_freq (core, mhz) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if mhz < 100 || mhz > 1000 then
                  invalid_arg "Engine: frequency outside 100..1000 MHz"
                else begin
                  (* DVFS is tile-granular on the SCC: both cores of the
                     tile change together *)
                  let tile_base =
                    core / t.cfg.Config.cores_per_tile
                    * t.cfg.Config.cores_per_tile
                  in
                  if not t.strict then
                    check_conflict t ctx ~lo:tile_base
                      ~hi:(tile_base + t.cfg.Config.cores_per_tile - 1)
                      "frequency change";
                  for c = tile_base
                      to tile_base + t.cfg.Config.cores_per_tile - 1 do
                    t.core_freq_mhz.(c) <- mhz;
                    t.ps_core.(c) <- Config.ps_per_cycle mhz
                  done;
                  (* the PLL relock stalls the caller briefly *)
                  charge_compute t ctx (ccx t ctx 1_000);
                  park_ready t ctx k
                end)
        | E_flag_set (id, value) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                do_flag_set t ctx id value k)
        | E_flag_wait id ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                do_flag_wait t ctx id k)
        | E_join target ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if target < 0 || target >= n_ctxs t then
                  invalid_arg "Engine: join of unknown context"
                else begin
                  let child = t.ctx_arr.(target) in
                  if child.status = Finished then begin
                    advance t ctx ~cat:Category.sync
                      ~pred:(last_event t child.id)
                      (Int.max ctx.now child.now);
                    park_ready t ctx k
                  end
                  else begin
                    ctx.status <- Parked;
                    ctx.pending <- Cont k;
                    child.joiners <- (ctx, k) :: child.joiners;
                    t.n_join_waiting <- t.n_join_waiting + 1
                  end
                end)
        | _ -> None);
  }

and make_api t ctx =
  let line = t.cfg.Config.line_bytes in
  (* Hot-path shortcut, mirroring the [E_yield] handler arm: apply the
     operation's charge first, then — when the scheduler would provably
     pick this context again — account for the event in place and
     return, performing no effect at all (no continuation is reified, no
     stack grows).  Otherwise yield to the scheduler with the charge
     already applied.  The state mutations and their order are exactly
     those of the effect path, so the event stream is bit-identical
     either way. *)
  let settle () =
    if fast_self_pick t ctx then t.n_events <- t.n_events + 1
    else Effect.perform E_yield
  in
  (* a block access issues one scheduling point per line, so the
     scheduler can interleave other contexts' requests between them; an
     access that fits in a line (every interpreted one) is one line
     without a division *)
  if t.strict then begin
    (* global order: every operation settles, and a context holds the
       turn whenever it runs *)
    let access write addr ~bytes =
      let nlines = if bytes <= line then 1 else (bytes + line - 1) / line in
      for i = 0 to nlines - 1 do
        charge_access t ctx ~write (addr + (i * line));
        settle ()
      done
    in
    {
      self = ctx.id;
      nunits = n_ctxs t;
      core = ctx.core;
      compute =
        (fun n ->
          if n > 0 then begin
            let dur = ccx t ctx n in
            ctx.stats.Stats.compute_ps <- ctx.stats.Stats.compute_ps + dur;
            charge_compute t ctx dur;
            settle ()
          end);
      load = (fun addr ~bytes -> access false addr ~bytes);
      store = (fun addr ~bytes -> access true addr ~bytes);
      barrier =
        (fun () ->
          Effect.perform (E_arrive (t.global_barrier, t.n_barrier_members)));
      acquire = (fun lock_id -> Effect.perform (E_acquire lock_id));
      release = (fun lock_id -> Effect.perform (E_release lock_id));
      now_ps = (fun () -> ctx.now);
      spawn_child = (fun program -> Effect.perform (E_spawn program));
      join = (fun target -> Effect.perform (E_join target));
      barrier_n =
        (fun ~id ~count ->
          Effect.perform (E_arrive (counted_barrier t id, count)));
      flag_set = (fun ~id value -> Effect.perform (E_flag_set (id, value)));
      flag_wait = (fun ~id -> Effect.perform (E_flag_wait id));
      set_frequency =
        (fun ~core ~mhz -> Effect.perform (E_set_freq (core, mhz)));
      take_turn = ignore;
    }
  end
  else begin
    let access write addr ~bytes =
      let nlines = if bytes <= line then 1 else (bytes + line - 1) / line in
      for i = 0 to nlines - 1 do
        let a = addr + (i * line) in
        (* region kind and owning core: equal to [ctx.core] exactly for
           a line of this core's private pages *)
        let page = (a lsr 32) land 0x3ff in
        if page = ctx.core && runs_ahead t ctx then begin
          charge_access t ctx ~write a;
          ran_ahead t ctx
        end
        else begin
          wait_turn t ctx;
          charge_access t ctx ~write a;
          settle ();
          (* another core's private page: its owner's run-ahead reads
             and writes the same cells the caller is about to *)
          if page < 0x100 && page <> ctx.core then
            check_conflict t ctx ~lo:page ~hi:page "private access"
        end
      done
    in
    (* every synchronization step is visible to other contexts *)
    let sync eff = wait_turn t ctx; Effect.perform eff in
    {
      self = ctx.id;
      nunits = n_ctxs t;
      core = ctx.core;
      compute =
        (fun n ->
          if n > 0 then begin
            let dur = ccx t ctx n in
            ctx.stats.Stats.compute_ps <- ctx.stats.Stats.compute_ps + dur;
            charge_compute t ctx dur;
            if runs_ahead t ctx then ran_ahead t ctx else settle ()
          end);
      load = (fun addr ~bytes -> access false addr ~bytes);
      store = (fun addr ~bytes -> access true addr ~bytes);
      barrier =
        (fun () -> sync (E_arrive (t.global_barrier, t.n_barrier_members)));
      acquire = (fun lock_id -> sync (E_acquire lock_id));
      release = (fun lock_id -> sync (E_release lock_id));
      now_ps = (fun () -> ctx.now);
      spawn_child = (fun program -> sync (E_spawn program));
      join = (fun target -> sync (E_join target));
      barrier_n =
        (fun ~id ~count -> sync (E_arrive (counted_barrier t id, count)));
      flag_set = (fun ~id value -> sync (E_flag_set (id, value)));
      flag_wait = (fun ~id -> sync (E_flag_wait id));
      set_frequency = (fun ~core ~mhz -> sync (E_set_freq (core, mhz)));
      take_turn = (fun () -> wait_turn t ctx);
    }
  end

(* A context's whole life: finishing, or failing, is ordered like any
   other visible step, so of several failing contexts the one failing
   first in simulated time is the one reported. *)
and run_body t ctx program api =
  if t.strict then program api
  else
    match program api with
    | () -> wait_turn t ctx
    | exception e ->
        wait_turn t ctx;
        raise e

let spawn t ~core program =
  if t.started then
    invalid_arg "Engine.spawn: simulation already started (use spawn_child)";
  let ctx = add_ctx t ~core ~barrier_member:true ~now:0 in
  (* [make_api] runs inside the thunk, at first resume, so [api.nunits]
     sees every statically spawned context *)
  ctx.pending <- Start (fun () -> run_body t ctx program (make_api t ctx));
  ctx.id

(* Slice preference: on a shared core the OS keeps the current thread
   running until its time slice expires.  At most one context per core
   can own the slice (it must be the core's [last_ctx]), so scanning the
   shared cores is O(#shared cores), not O(n), and with no shared core
   it is one match.  Ties between slice owners on distinct cores break
   on the smaller local time, then the smaller ctx id — exactly the
   order the original left-to-right fold produced, since contexts are
   stored in id order.  This scan looks at context records directly, so
   it is correct whether or not the contexts have been pushed to a heap
   yet.  Call with [best = no_ctx]. *)
let rec slice_pick t best = function
  | [] -> best
  | core :: cores ->
      let proc = t.procs.(core) in
      let best =
        if proc.last_ctx < 0 then best
        else
          let c = t.ctx_arr.(proc.last_ctx) in
          if c.status = Ready && c.now <= proc.slice_end
             && (best.id < 0 || key_less c.now c.id best.now best.id)
          then c
          else best
      in
      slice_pick t best cores

(* Move the stashed contexts into the heap, except [c], the slice owner
   resumed next. *)
let flush_stash t c =
  for i = 0 to t.n_stash - 1 do
    let id = t.stash.(i) in
    if id <> c.id then heap_push t.ready ~now:t.ctx_arr.(id).now ~id
  done;
  t.n_stash <- 0

(* Take the live minimum on (time, id) over the stash and the ready
   heap out of both; [no_ctx] when nothing is ready.  Every stashed
   context but the last is pushed.  The last, [x] — usually the context
   that just yielded — is compared with the settled root instead: when
   [x] wins it is resumed and the heap is not touched; otherwise [x]
   takes the root's slot, one sift down places it, and the root is
   resumed.  Either way the heap holds what pushing [x] and popping the
   minimum would leave, for one sift instead of two. *)
let heap_pick t =
  let h = t.ready in
  let n = t.n_stash in
  if n = 0 then begin
    if heap_settle t h then begin
      let id = h.hid.(0) in
      heap_pop_root h;
      t.ctx_arr.(id)
    end
    else no_ctx
  end
  else begin
    t.n_stash <- 0;
    for i = 0 to n - 2 do
      let c = t.ctx_arr.(t.stash.(i)) in
      heap_push h ~now:c.now ~id:c.id
    done;
    let x = t.ctx_arr.(t.stash.(n - 1)) in
    if heap_settle t h && key_less h.hnow.(0) h.hid.(0) x.now x.id then begin
      let id = h.hid.(0) in
      heap_replace_root h ~now:x.now ~id:x.id;
      t.ctx_arr.(id)
    end
    else x
  end

let resume t ctx =
  t.n_events <- t.n_events + 1;
  ctx.status <- Running;
  match ctx.pending with
  | Cont k ->
      ctx.pending <- Nothing;
      t.round_trips <- t.round_trips + 1;
      Effect.Deep.continue k ()
  | Start main ->
      ctx.pending <- Nothing;
      Effect.Deep.match_with main () (handler t ctx)
  | Nothing -> invalid_arg "Engine.resume: context has nothing to run"

let run t =
  if t.started then invalid_arg "Engine.run: simulation already started";
  t.started <- true;
  let rec loop () =
    (* scheduling policy: the runnable context with the smallest local
       time — except that a context still owning its shared core's time
       slice is preferred over switching *)
    let c = slice_pick t no_ctx t.shared_cores in
    let c =
      if c.id >= 0 then begin
        flush_stash t c;
        c
      end
      else heap_pick t
    in
    if c.id >= 0 then begin
      resume t c;
      loop ()
    end
    else if t.n_finished < n_ctxs t then
      raise
        (Deadlock
           (Printf.sprintf
              "%d of %d contexts parked with no runnable context \
               (barrier waiting: %d, join waiting: %d)"
              (n_ctxs t - t.n_finished)
              (n_ctxs t)
              t.global_barrier.cb_arrived t.n_join_waiting))
  in
  if n_ctxs t > 0 then loop ();
  (* the cap keeps the events recorded first in processing order, which
     running ahead changes *)
  (match t.critpath with
  | Some cp when (not t.strict) && Critpath.dropped cp > 0 ->
      raise
        (Order_conflict
           (Printf.sprintf
              "the critical-path recorder dropped %d events while running \
               ahead"
              (Critpath.dropped cp)))
  | _ -> ());
  (* complete inclusive times for frames still open at the end *)
  (match t.profile with None -> () | Some p -> Profile.finalize p);
  (* close the causal account: idle tails up to the wall and the nominal
     MPB line cost for the MPB-speed counterfactual *)
  match t.critpath with
  | None -> ()
  | Some cp ->
      let wall = ref 0 in
      for i = 0 to t.n_ctx - 1 do
        wall := Int.max !wall t.ctx_arr.(i).stats.Stats.finish_ps
      done;
      let mpb_line_ps =
        cc t t.cfg.Config.mpb_base_cycles
        + (2 * Mesh.min_hop_ps t.mesh) + t.mesh_transfer_ps
      in
      Critpath.finalize cp ~wall_ps:!wall ~mpb_line_ps
        ~stats:(Array.init t.n_ctx (fun i -> t.ctx_arr.(i).stats));
      (match t.profile with
      | None -> ()
      | Some p -> Critpath.register_metrics cp (Profile.registry p))

let stats t =
  {
    Stats.ctxs = Array.init t.n_ctx (fun i -> t.ctx_arr.(i).stats);
    mc_busy_ps = t.mc_busy_ps;
    mc_requests = t.mc_requests;
  }

let elapsed_ps t =
  let acc = ref 0 in
  for i = 0 to t.n_ctx - 1 do
    acc := Int.max !acc t.ctx_arr.(i).stats.Stats.finish_ps
  done;
  !acc

let elapsed_ms t = float_of_int (elapsed_ps t) /. 1e9

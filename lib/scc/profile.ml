(* Simulated-time source profiler (see profile.mli).

   Everything on the charging path is allocation-free: function and line
   names are interned once to integer slots, per-context frame stacks
   are growable int arrays, and a charge is a handful of array stores.
   Inclusive time uses the push-mark technique: entering a frame
   snapshots the context's total attributed picoseconds, and the pop
   adds the difference — recursive re-entries are marked and skipped, so
   a self-recursive function is not double counted. *)

type t = {
  (* function slots *)
  mutable fn_names : string array;
  mutable fn_tbl : (string, int) Hashtbl.t;
  mutable n_fns : int;
  mutable flat : int array array;   (* [busy category].[slot] *)
  mutable incl : int array;         (* [slot] *)
  mutable calls : int array;        (* [slot] *)
  (* line slots *)
  mutable line_names : string array;
  mutable line_tbl : (string, int) Hashtbl.t;
  mutable n_lines : int;
  mutable line_ps : int array;
  (* per-context state *)
  mutable stacks : int array array;  (* [ctx]: slot stack *)
  mutable marks : int array array;   (* [ctx]: attr snapshot per frame; -1 = recursive *)
  mutable depths : int array;
  mutable onstack : int array array; (* [ctx].[slot]: occurrences on the stack *)
  mutable cur_line : int array;
  mutable attr : int array;          (* [ctx]: total attributed ps *)
  mutable n_ctx : int;
  (* locks, keyed by engine lock id *)
  mutable lock_names : string array;
  mutable lock_acqs : int array;
  mutable lock_contended : int array;
  mutable lock_wait : int array;
  mutable lock_max_wait : int array;
  mutable lock_max_holder : int array;
  mutable n_locks : int;
  (* barriers, keyed by barrier id (-1 = the global barrier) *)
  mutable barrier_tbl : (int, barrier_cell) Hashtbl.t;
  (* sampled timelines, reverse recording order *)
  mutable samples : (int * string * (string * float) list) list;
  interval_ps : int;
  (* aggregate metrics *)
  reg : Obs.Registry.t;
  mutable cat_ctr : Obs.Counter.t array;  (* attributed ps per category *)
  mutable lock_acq_ctr : Obs.Counter.t;
  mutable lock_contended_ctr : Obs.Counter.t;
  mutable lock_wait_hist : Obs.Histogram.t;
  mutable barrier_ctr : Obs.Counter.t;
  mutable barrier_spread_hist : Obs.Histogram.t;
}

and barrier_cell = {
  mutable bc_episodes : int;
  mutable bc_total_spread : int;
  mutable bc_max_spread : int;
}

let wait_bounds = [| 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |]

(* A profiler as [create] leaves it, registering its instruments in
   [reg]. *)
let fresh ~sample_interval_ps reg =
  let cat_ctr =
    Array.init Category.n_busy (fun k ->
        Obs.Registry.counter reg
          ~help:("simulated picoseconds attributed to " ^ Category.slice_name k)
          (Category.metric_name k))
  in
  let t =
    {
      fn_names = Array.make 16 "";
      fn_tbl = Hashtbl.create 16;
      n_fns = 0;
      flat = Array.init Category.n_busy (fun _ -> Array.make 16 0);
      incl = Array.make 16 0;
      calls = Array.make 16 0;
      line_names = Array.make 64 "";
      line_tbl = Hashtbl.create 64;
      n_lines = 0;
      line_ps = Array.make 64 0;
      stacks = [||];
      marks = [||];
      depths = [||];
      onstack = [||];
      cur_line = [||];
      attr = [||];
      n_ctx = 0;
      lock_names = Array.make 8 "";
      lock_acqs = Array.make 8 0;
      lock_contended = Array.make 8 0;
      lock_wait = Array.make 8 0;
      lock_max_wait = Array.make 8 0;
      lock_max_holder = Array.make 8 (-1);
      n_locks = 0;
      barrier_tbl = Hashtbl.create 8;
      samples = [];
      interval_ps = sample_interval_ps;
      reg;
      cat_ctr;
      lock_acq_ctr =
        Obs.Registry.counter reg ~help:"lock acquisitions"
          "sim_lock_acquisitions_total";
      lock_contended_ctr =
        Obs.Registry.counter reg ~help:"lock acquisitions that waited"
          "sim_lock_contended_total";
      lock_wait_hist =
        Obs.Registry.histogram reg ~help:"per-acquisition lock wait (ps)"
          ~bounds:wait_bounds "sim_lock_wait_ps";
      barrier_ctr =
        Obs.Registry.counter reg ~help:"completed barrier episodes"
          "sim_barrier_episodes_total";
      barrier_spread_hist =
        Obs.Registry.histogram reg
          ~help:"per-episode barrier arrival spread (ps)" ~bounds:wait_bounds
          "sim_barrier_spread_ps";
    }
  in
  (* slot 0: time charged while a context's frame stack is empty *)
  Hashtbl.replace t.fn_tbl "<toplevel>" 0;
  t.fn_names.(0) <- "<toplevel>";
  t.n_fns <- 1;
  (* line slot 0: charges with no current line *)
  Hashtbl.replace t.line_tbl "<unknown>" 0;
  t.line_names.(0) <- "<unknown>";
  t.n_lines <- 1;
  t

let create ?(sample_interval_ps = 1_000_000) () =
  if sample_interval_ps <= 0 then
    invalid_arg "Profile.create: sample interval must be positive";
  fresh ~sample_interval_ps (Obs.Registry.create ())

let reset t =
  Obs.Registry.clear t.reg;
  let f = fresh ~sample_interval_ps:t.interval_ps t.reg in
  t.fn_names <- f.fn_names;
  t.fn_tbl <- f.fn_tbl;
  t.n_fns <- f.n_fns;
  t.flat <- f.flat;
  t.incl <- f.incl;
  t.calls <- f.calls;
  t.line_names <- f.line_names;
  t.line_tbl <- f.line_tbl;
  t.n_lines <- f.n_lines;
  t.line_ps <- f.line_ps;
  t.stacks <- f.stacks;
  t.marks <- f.marks;
  t.depths <- f.depths;
  t.onstack <- f.onstack;
  t.cur_line <- f.cur_line;
  t.attr <- f.attr;
  t.n_ctx <- f.n_ctx;
  t.lock_names <- f.lock_names;
  t.lock_acqs <- f.lock_acqs;
  t.lock_contended <- f.lock_contended;
  t.lock_wait <- f.lock_wait;
  t.lock_max_wait <- f.lock_max_wait;
  t.lock_max_holder <- f.lock_max_holder;
  t.n_locks <- f.n_locks;
  t.barrier_tbl <- f.barrier_tbl;
  t.samples <- f.samples;
  t.cat_ctr <- f.cat_ctr;
  t.lock_acq_ctr <- f.lock_acq_ctr;
  t.lock_contended_ctr <- f.lock_contended_ctr;
  t.lock_wait_hist <- f.lock_wait_hist;
  t.barrier_ctr <- f.barrier_ctr;
  t.barrier_spread_hist <- f.barrier_spread_hist

let sample_interval_ps t = t.interval_ps

(* --- growable storage ----------------------------------------------------- *)

let grow_int_array a n fill =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let bigger = Array.make (max n (2 * max 1 cap)) fill in
    Array.blit a 0 bigger 0 cap;
    bigger
  end

let grow_string_array a n =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let bigger = Array.make (max n (2 * max 1 cap)) "" in
    Array.blit a 0 bigger 0 cap;
    bigger
  end

let ensure_ctx t ctx =
  if ctx >= t.n_ctx then begin
    let n = ctx + 1 in
    let old = t.n_ctx in
    t.depths <- grow_int_array t.depths n 0;
    t.cur_line <- grow_int_array t.cur_line n 0;
    t.attr <- grow_int_array t.attr n 0;
    let cap = Array.length t.stacks in
    if n > cap then begin
      let grow_2d a =
        let bigger = Array.make (max n (2 * max 1 cap)) [||] in
        Array.blit a 0 bigger 0 cap;
        bigger
      in
      t.stacks <- grow_2d t.stacks;
      t.marks <- grow_2d t.marks;
      t.onstack <- grow_2d t.onstack
    end;
    for c = old to n - 1 do
      if Array.length t.stacks.(c) = 0 then begin
        t.stacks.(c) <- Array.make 16 0;
        t.marks.(c) <- Array.make 16 0;
        t.onstack.(c) <- Array.make 16 0
      end
    done;
    t.n_ctx <- n
  end

let intern t name =
  match Hashtbl.find_opt t.fn_tbl name with
  | Some slot -> slot
  | None ->
      let slot = t.n_fns in
      t.n_fns <- slot + 1;
      t.fn_names <- grow_string_array t.fn_names t.n_fns;
      t.fn_names.(slot) <- name;
      t.incl <- grow_int_array t.incl t.n_fns 0;
      t.calls <- grow_int_array t.calls t.n_fns 0;
      for k = 0 to Category.n_busy - 1 do
        t.flat.(k) <- grow_int_array t.flat.(k) t.n_fns 0
      done;
      Hashtbl.replace t.fn_tbl name slot;
      slot

let intern_line t key =
  match Hashtbl.find_opt t.line_tbl key with
  | Some slot -> slot
  | None ->
      let slot = t.n_lines in
      t.n_lines <- slot + 1;
      t.line_names <- grow_string_array t.line_names t.n_lines;
      t.line_names.(slot) <- key;
      t.line_ps <- grow_int_array t.line_ps t.n_lines 0;
      Hashtbl.replace t.line_tbl key slot;
      slot

(* --- frames ---------------------------------------------------------------- *)

let push t ~ctx slot =
  if ctx >= t.n_ctx then ensure_ctx t ctx;
  let d = t.depths.(ctx) in
  let stack = t.stacks.(ctx) in
  if d = Array.length stack then begin
    t.stacks.(ctx) <- grow_int_array stack (d + 1) 0;
    t.marks.(ctx) <- grow_int_array t.marks.(ctx) (d + 1) 0
  end;
  let on = t.onstack.(ctx) in
  let on =
    if slot >= Array.length on then begin
      let bigger = grow_int_array on (slot + 1) 0 in
      t.onstack.(ctx) <- bigger;
      bigger
    end
    else on
  in
  t.stacks.(ctx).(d) <- slot;
  t.marks.(ctx).(d) <- (if on.(slot) = 0 then t.attr.(ctx) else -1);
  on.(slot) <- on.(slot) + 1;
  t.calls.(slot) <- t.calls.(slot) + 1;
  t.depths.(ctx) <- d + 1

let pop t ~ctx =
  if ctx < t.n_ctx && t.depths.(ctx) > 0 then begin
    let d = t.depths.(ctx) - 1 in
    t.depths.(ctx) <- d;
    let slot = t.stacks.(ctx).(d) in
    t.onstack.(ctx).(slot) <- t.onstack.(ctx).(slot) - 1;
    let mark = t.marks.(ctx).(d) in
    if mark >= 0 then t.incl.(slot) <- t.incl.(slot) + (t.attr.(ctx) - mark)
  end

let set_line t ~ctx line =
  if ctx >= t.n_ctx then ensure_ctx t ctx;
  t.cur_line.(ctx) <- line

(* Also brings the per-category counters up to the totals in [flat], which
   a charge does not touch; a second call adds nothing. *)
let finalize t =
  for ctx = 0 to t.n_ctx - 1 do
    while t.depths.(ctx) > 0 do
      pop t ~ctx
    done
  done;
  Array.iteri
    (fun k c ->
      let total = Array.fold_left ( + ) 0 t.flat.(k) in
      Obs.Counter.add c (total - Obs.Counter.value c))
    t.cat_ctr

(* --- charging --------------------------------------------------------------- *)

let charge t ~ctx ~cat dur =
  if dur > 0 then begin
    if ctx >= t.n_ctx then ensure_ctx t ctx;
    let d = t.depths.(ctx) in
    let slot = if d = 0 then 0 else t.stacks.(ctx).(d - 1) in
    t.flat.(cat).(slot) <- t.flat.(cat).(slot) + dur;
    if d = 0 then t.incl.(0) <- t.incl.(0) + dur;
    t.attr.(ctx) <- t.attr.(ctx) + dur;
    let line = t.cur_line.(ctx) in
    t.line_ps.(line) <- t.line_ps.(line) + dur
  end

let ensure_lock t lock =
  if lock >= t.n_locks then begin
    let n = lock + 1 in
    t.lock_names <- grow_string_array t.lock_names n;
    t.lock_acqs <- grow_int_array t.lock_acqs n 0;
    t.lock_contended <- grow_int_array t.lock_contended n 0;
    t.lock_wait <- grow_int_array t.lock_wait n 0;
    t.lock_max_wait <- grow_int_array t.lock_max_wait n 0;
    t.lock_max_holder <- grow_int_array t.lock_max_holder n (-1);
    t.n_locks <- n
  end

let lock_acquired t ~lock ~wait_ps ~holder =
  ensure_lock t lock;
  t.lock_acqs.(lock) <- t.lock_acqs.(lock) + 1;
  Obs.Counter.incr t.lock_acq_ctr;
  Obs.Histogram.observe t.lock_wait_hist wait_ps;
  if wait_ps > 0 then begin
    t.lock_contended.(lock) <- t.lock_contended.(lock) + 1;
    Obs.Counter.incr t.lock_contended_ctr;
    t.lock_wait.(lock) <- t.lock_wait.(lock) + wait_ps;
    if wait_ps > t.lock_max_wait.(lock) then begin
      t.lock_max_wait.(lock) <- wait_ps;
      t.lock_max_holder.(lock) <- holder
    end
  end

let name_lock t ~lock name =
  ensure_lock t lock;
  if t.lock_names.(lock) = "" then t.lock_names.(lock) <- name

let barrier_episode t ~key ~spread_ps =
  let cell =
    match Hashtbl.find_opt t.barrier_tbl key with
    | Some cell -> cell
    | None ->
        let cell =
          { bc_episodes = 0; bc_total_spread = 0; bc_max_spread = 0 }
        in
        Hashtbl.replace t.barrier_tbl key cell;
        cell
  in
  cell.bc_episodes <- cell.bc_episodes + 1;
  cell.bc_total_spread <- cell.bc_total_spread + spread_ps;
  if spread_ps > cell.bc_max_spread then cell.bc_max_spread <- spread_ps;
  Obs.Counter.incr t.barrier_ctr;
  Obs.Histogram.observe t.barrier_spread_hist spread_ps

let sample t ~ts ~name ~series = t.samples <- (ts, name, series) :: t.samples

(* --- reports ----------------------------------------------------------------- *)

let attributed_ps t ~ctx = if ctx < t.n_ctx then t.attr.(ctx) else 0

let total_attributed_ps t =
  let acc = ref 0 in
  for c = 0 to t.n_ctx - 1 do
    acc := !acc + t.attr.(c)
  done;
  !acc

let n_ctxs t = t.n_ctx

type fn_row = {
  fn_name : string;
  fn_calls : int;
  fn_flat_ps : int array;
  fn_flat_total_ps : int;
  fn_incl_ps : int;
}

let functions t =
  let rows = ref [] in
  for slot = t.n_fns - 1 downto 0 do
    let flat = Array.init Category.n_busy (fun k -> t.flat.(k).(slot)) in
    let total = Array.fold_left ( + ) 0 flat in
    if total > 0 || t.incl.(slot) > 0 then
      rows :=
        {
          fn_name = t.fn_names.(slot);
          fn_calls = t.calls.(slot);
          fn_flat_ps = flat;
          fn_flat_total_ps = total;
          fn_incl_ps = max t.incl.(slot) total;
        }
        :: !rows
  done;
  List.sort
    (fun a b ->
      match compare b.fn_flat_total_ps a.fn_flat_total_ps with
      | 0 -> compare a.fn_name b.fn_name
      | c -> c)
    !rows

let lines t =
  let rows = ref [] in
  for slot = t.n_lines - 1 downto 1 do
    if t.line_ps.(slot) > 0 then
      rows := (t.line_names.(slot), t.line_ps.(slot)) :: !rows
  done;
  List.sort
    (fun (na, a) (nb, b) ->
      match compare b a with 0 -> compare na nb | c -> c)
    !rows

type lock_row = {
  lk_name : string;
  lk_acquisitions : int;
  lk_contended : int;
  lk_wait_ps : int;
  lk_max_wait_ps : int;
  lk_max_holder : int;
}

let locks t =
  let rows = ref [] in
  for lock = t.n_locks - 1 downto 0 do
    if t.lock_acqs.(lock) > 0 then
      rows :=
        {
          lk_name =
            (if t.lock_names.(lock) <> "" then t.lock_names.(lock)
             else Printf.sprintf "lock#%d" lock);
          lk_acquisitions = t.lock_acqs.(lock);
          lk_contended = t.lock_contended.(lock);
          lk_wait_ps = t.lock_wait.(lock);
          lk_max_wait_ps = t.lock_max_wait.(lock);
          lk_max_holder = t.lock_max_holder.(lock);
        }
        :: !rows
  done;
  List.sort
    (fun a b ->
      match compare b.lk_wait_ps a.lk_wait_ps with
      | 0 -> compare a.lk_name b.lk_name
      | c -> c)
    !rows

type barrier_row = {
  br_name : string;
  br_episodes : int;
  br_total_spread_ps : int;
  br_max_spread_ps : int;
}

let barriers t =
  let rows =
    Hashtbl.fold
      (fun key cell acc ->
        ( key,
          {
            br_name =
              (if key < 0 then "global" else Printf.sprintf "barrier#%d" key);
            br_episodes = cell.bc_episodes;
            br_total_spread_ps = cell.bc_total_spread;
            br_max_spread_ps = cell.bc_max_spread;
          } )
        :: acc)
      t.barrier_tbl []
  in
  List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) rows)

let registry t = t.reg

(* --- allocation-free introspection (for the critical-path recorder) ------- *)

let[@inline] current_fn_slot t ~ctx =
  if ctx < t.n_ctx then begin
    let d = t.depths.(ctx) in
    if d = 0 then 0 else t.stacks.(ctx).(d - 1)
  end
  else 0

let[@inline] current_line_slot t ~ctx =
  if ctx < t.n_ctx then t.cur_line.(ctx) else 0

let fn_name t slot =
  if slot >= 0 && slot < t.n_fns then t.fn_names.(slot) else "?"

let line_name t slot =
  if slot >= 0 && slot < t.n_lines then t.line_names.(slot) else "?"

let counter_events t =
  let metrics_pid = 9998 in
  Obs.Chrome.Process_name { pid = metrics_pid; name = "machine metrics" }
  :: List.rev_map
       (fun (ts, name, series) ->
         Obs.Chrome.Counter
           { name; pid = metrics_pid; ts_us = float_of_int ts /. 1e6; series })
       t.samples

(* --- rendering ---------------------------------------------------------------- *)

let render_functions t =
  let header =
    [ "function"; "calls"; "compute"; "private"; "shared"; "mpb"; "barrier";
      "lock"; "flat-ps"; "incl-ps" ]
  in
  let rows =
    List.map
      (fun r ->
        r.fn_name :: string_of_int r.fn_calls
        :: (Array.to_list (Array.map string_of_int r.fn_flat_ps)
           @ [ string_of_int r.fn_flat_total_ps; string_of_int r.fn_incl_ps ]))
      (functions t)
  in
  Obs.render_table (header :: rows)

let render_lines ?(limit = 20) t =
  let rows =
    List.filteri (fun i _ -> i < limit) (lines t)
    |> List.map (fun (name, ps) -> [ name; string_of_int ps ])
  in
  Obs.render_table ([ "line"; "ps" ] :: rows)

let render_locks t =
  let rows =
    List.map
      (fun r ->
        [ r.lk_name;
          string_of_int r.lk_acquisitions;
          string_of_int r.lk_contended;
          string_of_int r.lk_wait_ps;
          string_of_int r.lk_max_wait_ps;
          (if r.lk_max_holder < 0 then "-" else string_of_int r.lk_max_holder)
        ])
      (locks t)
  in
  Obs.render_table
    ([ "mutex"; "acqs"; "contended"; "wait-ps"; "max-wait-ps";
       "holder@max" ]
    :: rows)

let render_barriers t =
  let rows =
    List.map
      (fun r ->
        [ r.br_name;
          string_of_int r.br_episodes;
          string_of_int r.br_total_spread_ps;
          string_of_int r.br_max_spread_ps ])
      (barriers t)
  in
  Obs.render_table
    ([ "barrier"; "episodes"; "spread-ps"; "max-spread-ps" ] :: rows)

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "flat profile (simulated ps):\n";
  Buffer.add_string buf (render_functions t);
  (match lines t with
  | [] -> ()
  | _ ->
      Buffer.add_string buf "\nhottest source lines:\n";
      Buffer.add_string buf (render_lines t));
  (match locks t with
  | [] -> ()
  | _ ->
      Buffer.add_string buf "\nmutex contention:\n";
      Buffer.add_string buf (render_locks t));
  (match barriers t with
  | [] -> ()
  | _ ->
      Buffer.add_string buf "\nbarrier imbalance:\n";
      Buffer.add_string buf (render_barriers t));
  Buffer.contents buf

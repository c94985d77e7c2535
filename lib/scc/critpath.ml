(* Causal observability over the DES (see critpath.mli).

   The engine reports every local-clock advance here exactly once, as an
   interval with a category, an optional cross-context dependency edge
   (lock holder, barrier last-arriver, flag setter, join target, spawn
   parent), and the profiler's current function/line slots.  Two things
   are built from that stream:

   - a full accounting: per-context per-category picosecond totals that
     by construction satisfy  sum over categories == wall ps  for every
     context (idle head/tail fills the gaps), so nothing is silently
     dropped.  The accumulators are plain adds and never stop, even
     when the event buffer hits its cap;

   - the event-dependency graph itself, one lane per context: 3 ints
     per event (packed category/core/function/line, duration, end), so
     the context and its program-order predecessor are implicit, and a
     side array of (index, handle) pairs for the few events with a
     causal edge.  Record is a handful of array stores; past the cap
     events are counted, never silently lost.  The critical path is the
     backward walk from the last event of the last-finishing context:
     follow the dependency edge when there is one, program order
     otherwise.  It is walked once per recorded stream and shared by
     every report.

   What-if estimators replay the accounting under counterfactuals
   (zero mesh latency, zero lock waits, MPB-speed shared DRAM) by
   subtracting the removable picoseconds from each context's finish
   time; the new wall is the max over contexts.  The mesh picoseconds
   and shared-DRAM lines they need are the engine's [Stats], handed to
   [finalize].  These are ceilings,
   not predictions: removing a wait can re-order a lock queue or shift
   a barrier's last arriver, which the replay ignores. *)

(* --- state ----------------------------------------------------------------- *)

(* A stored event is 3 ints in its context's lane: the packed word, the
   duration and the end time.  The word packs, from the top, the
   function slot, the line slot, the category and core + 1, so that
   [word lsr core_bits] orders path contributors the way the tuple
   (fn, line, category) does.  Slots, categories and cores that do not
   fit raise [Invalid_argument] instead of wrapping. *)
let core_bits = 10
let cat_bits = 4
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

let does_not_fit ~cat ~core ~fn ~line =
  invalid_arg
    (Printf.sprintf "Critpath: category %d, core %d, fn %d, line %d do not fit"
       cat core fn line)

let[@inline] pack ~cat ~core ~fn ~line =
  if (cat lsr cat_bits) lor ((core + 1) lsr core_bits) lor (fn lsr slot_bits)
     lor (line lsr slot_bits) <> 0
  then does_not_fit ~cat ~core ~fn ~line;
  ((((fn lsl slot_bits) lor line) lsl cat_bits lor cat) lsl core_bits)
  lor (core + 1)

let word_cat w = (w lsr core_bits) land ((1 lsl cat_bits) - 1)
let word_core w = (w land ((1 lsl core_bits) - 1)) - 1
let word_line w = (w lsr (core_bits + cat_bits)) land slot_mask
let word_fn w = w lsr (core_bits + cat_bits + slot_bits)

(* A handle names a stored event: its context and its index in that
   context's lane. *)
let ctx_bits = 20
let max_index = 1 lsl (62 - ctx_bits)
let handle ~ctx i = (i lsl ctx_bits) lor ctx
let handle_ctx h = h land ((1 lsl ctx_bits) - 1)
let handle_index h = h lsr ctx_bits

(* One context's stored events, in record order: event [i] is 3 ints,
   the word, the duration and the end ps, at [3 (i mod chunk)] in
   [chunks.(i / chunk)].  Its program-order predecessor is event
   [i - 1].  The few events with a causal edge have a pair in [edges]:
   [edges.(2k)] is the event's index, [edges.(2k+1)] the handle it
   waited on, in index order. *)
type lane = {
  mutable chunks : int array array;
  mutable n : int;
  mutable edges : int array;
  mutable n_edges : int;
}

(* Events per chunk.  The first chunk doubles up to this size, so a
   context with few events holds little; later chunks are full size,
   so nothing is copied. *)
let chunk_bits = 10
let chunk = 1 lsl chunk_bits

type step = {
  st_ctx : int;
  st_core : int;
  st_cat : int;
  st_dur : int;
  st_end_ps : int;
  st_fn : int;
  st_line : int;
}

(* The critical path and what every report reads of it, computed once
   per recorded stream. *)
type path = {
  steps : step list;
  n_steps : int;
  span : int;
  by_cat : int array;
  by_cat_n : int array;
  top : (int * int * int * int * int) list;
}

type t = {
  limit : int;
  mutable lanes : lane array;
  mutable len : int;                  (* stored events, all lanes *)
  mutable n_dropped : int;
  (* per-context state (growable) *)
  mutable fin : int array;            (* local clock after the last advance *)
  mutable acct : int array array;     (* [ctx].[cat] picoseconds, exact *)
  mutable acct_n : int array array;   (* [ctx].[cat] interval counts *)
  mutable n_ctx : int;
  (* set by finalize *)
  mutable wall_ps : int;
  mutable mpb_line_ps : int;          (* nominal MPB line round trip *)
  mutable stats : Stats.ctx_stats array;  (* the engine's, per context *)
  mutable finalized : bool;
  (* the critical path, with the count of records ([len + n_dropped])
     it was walked after *)
  mutable path : (int * path) option;
}

let create ?(limit = 1_000_000) () =
  if limit > max_index then
    invalid_arg (Printf.sprintf "Critpath.create: limit above %d" max_index);
  {
    limit;
    lanes = [||];
    len = 0;
    n_dropped = 0;
    fin = [||];
    acct = [||];
    acct_n = [||];
    n_ctx = 0;
    wall_ps = 0;
    mpb_line_ps = 0;
    stats = [||];
    finalized = false;
    path = None;
  }

let reset t =
  let f = create ~limit:t.limit () in
  t.lanes <- f.lanes;
  t.len <- f.len;
  t.n_dropped <- f.n_dropped;
  t.fin <- f.fin;
  t.acct <- f.acct;
  t.acct_n <- f.acct_n;
  t.n_ctx <- f.n_ctx;
  t.wall_ps <- f.wall_ps;
  t.mpb_line_ps <- f.mpb_line_ps;
  t.stats <- f.stats;
  t.finalized <- f.finalized;
  t.path <- f.path

let grow a n fill =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let bigger = Array.make (max n (2 * max 1024 cap)) fill in
    Array.blit a 0 bigger 0 cap;
    bigger
  end

(* fills the lane slots past [n_ctx] *)
let no_lane = { chunks = [||]; n = 0; edges = [||]; n_edges = 0 }

let ensure_ctx t ctx =
  if ctx >= t.n_ctx then begin
    if ctx lsr ctx_bits <> 0 then
      invalid_arg (Printf.sprintf "Critpath: context %d does not fit" ctx);
    let n = ctx + 1 in
    let old = t.n_ctx in
    t.lanes <- grow t.lanes n no_lane;
    t.fin <- grow t.fin n 0;
    let cap = Array.length t.acct in
    if n > cap then begin
      let grow_2d a =
        let bigger = Array.make (max n (2 * max 1 cap)) [||] in
        Array.blit a 0 bigger 0 cap;
        bigger
      in
      t.acct <- grow_2d t.acct;
      t.acct_n <- grow_2d t.acct_n
    end;
    for c = old to n - 1 do
      t.lanes.(c) <- { chunks = [| [||] |]; n = 0; edges = [||]; n_edges = 0 };
      if Array.length t.acct.(c) = 0 then begin
        t.acct.(c) <- Array.make Category.count 0;
        t.acct_n.(c) <- Array.make Category.count 0
      end
    done;
    t.n_ctx <- n
  end

(* Grows [a], of which [used] ints are filled, to hold [need] ints:
   doubling, at least 96, at most [cap]. *)
let widen ?(cap = max_int) a ~used ~need =
  let bigger =
    Array.make (min cap (max need (max 96 (2 * Array.length a)))) 0
  in
  Array.blit a 0 bigger 0 used;
  bigger

(* Makes room for event [i], the lane's next one, whose chunk is full or
   missing. *)
let make_room l i =
  if i < chunk then
    l.chunks.(0) <-
      widen l.chunks.(0) ~used:(3 * i) ~need:(3 * (i + 1)) ~cap:(3 * chunk)
  else l.chunks <- Array.append l.chunks [| Array.make (3 * chunk) 0 |]

(* --- recording (engine side) ----------------------------------------------- *)

let stored t h =
  h >= 0
  && handle_ctx h < t.n_ctx
  && handle_index h < t.lanes.(handle_ctx h).n

let record t ~ctx ~core ~cat ~dur ~end_ps ~fn ~line ~pred =
  if dur > 0 then begin
    if ctx >= t.n_ctx then ensure_ctx t ctx;
    let word = pack ~cat ~core ~fn ~line in
    (* accounting is exact regardless of event-buffer truncation *)
    t.acct.(ctx).(cat) <- t.acct.(ctx).(cat) + dur;
    t.acct_n.(ctx).(cat) <- t.acct_n.(ctx).(cat) + 1;
    if end_ps > t.fin.(ctx) then t.fin.(ctx) <- end_ps;
    if t.len >= t.limit then t.n_dropped <- t.n_dropped + 1
    else begin
      let l = t.lanes.(ctx) in
      let i = l.n in
      let k = i lsr chunk_bits and o = 3 * (i land (chunk - 1)) in
      if k = Array.length l.chunks || o = Array.length l.chunks.(k) then
        make_room l i;
      let c = l.chunks.(k) in
      c.(o) <- word;
      c.(o + 1) <- dur;
      c.(o + 2) <- end_ps;
      if stored t pred then begin
        let k = l.n_edges in
        if 2 * k = Array.length l.edges then
          l.edges <- widen l.edges ~used:(2 * k) ~need:(2 * (k + 1));
        l.edges.(2 * k) <- i;
        l.edges.((2 * k) + 1) <- pred;
        l.n_edges <- k + 1
      end;
      l.n <- i + 1;
      t.len <- t.len + 1
    end
  end

let last_event t ~ctx =
  if ctx < t.n_ctx && t.lanes.(ctx).n > 0 then handle ~ctx (t.lanes.(ctx).n - 1)
  else -1

let finalize t ~wall_ps ~mpb_line_ps ~stats =
  if not t.finalized then begin
    t.finalized <- true;
    t.wall_ps <- wall_ps;
    t.mpb_line_ps <- mpb_line_ps;
    t.stats <- stats;
    (* idle tail: a context that finished before the wall is idle until
       the wall; recording it makes the accounting identity hold with
       no special cases *)
    for ctx = 0 to t.n_ctx - 1 do
      if t.fin.(ctx) < wall_ps then
        record t ~ctx ~core:(-1) ~cat:Category.idle ~dur:(wall_ps - t.fin.(ctx))
          ~end_ps:wall_ps ~fn:0 ~line:0 ~pred:(-1)
    done
  end

(* --- accounting ------------------------------------------------------------- *)

let events t = t.len
let dropped t = t.n_dropped
let n_ctxs t = t.n_ctx
let wall_ps t = t.wall_ps

let account t ~ctx ~cat =
  if ctx < t.n_ctx then t.acct.(ctx).(cat) else 0

let account_totals t =
  let acc = Array.make Category.count 0 in
  for ctx = 0 to t.n_ctx - 1 do
    for cat = 0 to Category.count - 1 do
      acc.(cat) <- acc.(cat) + t.acct.(ctx).(cat)
    done
  done;
  acc

let account_event_totals t =
  let acc = Array.make Category.count 0 in
  for ctx = 0 to t.n_ctx - 1 do
    for cat = 0 to Category.count - 1 do
      acc.(cat) <- acc.(cat) + t.acct_n.(ctx).(cat)
    done
  done;
  acc

(* sum of every charged picosecond vs wall * contexts: equal after
   finalize, or the engine missed (or double-charged) an advance *)
let identity t =
  let sum = Array.fold_left ( + ) 0 (account_totals t) in
  (sum, t.wall_ps * t.n_ctx)

let identity_ok t =
  let sum, expect = identity t in
  sum = expect

(* --- critical path ----------------------------------------------------------- *)

(* Backward walk from the last event of the last-finishing context:
   follow the causal edge when the event has one (the wait ends because
   of what the edge points at), program order otherwise.  Returned in
   execution order.  Every step moves to an event recorded earlier and a
   lane's record order is its index order, so the walk visits each
   lane's indices in decreasing order, and one cursor per lane finds
   each edge with no search.  With a truncated buffer the walk simply
   bottoms out at the oldest recorded ancestor — callers surface
   [dropped]. *)
let walk t =
  if t.n_ctx = 0 || t.len = 0 then []
  else begin
    let last_ctx = ref 0 in
    for ctx = 1 to t.n_ctx - 1 do
      if t.fin.(ctx) > t.fin.(!last_ctx) then last_ctx := ctx
    done;
    let cursor = Array.init t.n_ctx (fun c -> t.lanes.(c).n_edges - 1) in
    let steps = ref [] in
    let ctx = ref !last_ctx in
    let i = ref (t.lanes.(!ctx).n - 1) in
    while !i >= 0 do
      let l = t.lanes.(!ctx) and i' = !i in
      let k = ref cursor.(!ctx) in
      while !k >= 0 && l.edges.(2 * !k) > i' do decr k done;
      cursor.(!ctx) <- !k;
      let pred =
        if !k >= 0 && l.edges.(2 * !k) = i' then l.edges.((2 * !k) + 1)
        else -1
      in
      let c = l.chunks.(i' lsr chunk_bits) and o = 3 * (i' land (chunk - 1)) in
      let word = c.(o) in
      (* idle-tail events pad the accounting; the path skips them *)
      if word_cat word <> Category.idle || pred >= 0 then
        steps :=
          {
            st_ctx = !ctx;
            st_core = word_core word;
            st_cat = word_cat word;
            st_dur = c.(o + 1);
            st_end_ps = c.(o + 2);
            st_fn = word_fn word;
            st_line = word_line word;
          }
          :: !steps;
      if pred >= 0 then begin
        ctx := handle_ctx pred;
        i := handle_index pred
      end
      else decr i
    done;
    !steps
  end

let path_span steps =
  List.fold_left (fun acc s -> acc + s.st_dur) 0 steps

let path_by_category steps =
  let ps = Array.make Category.count 0 in
  let n = Array.make Category.count 0 in
  List.iter
    (fun s ->
      ps.(s.st_cat) <- ps.(s.st_cat) + s.st_dur;
      n.(s.st_cat) <- n.(s.st_cat) + 1)
    steps;
  (ps, n)

module Int_tbl = Hashtbl.Make (Int)

type contribution = { mutable c_ps : int; mutable c_n : int }

(* top {fn, line, category} contributors along the path, hottest first;
   the key is the packed word without its core, which orders like the
   tuple (fn, line, category) *)
let path_contributors steps =
  let tbl = Int_tbl.create 32 in
  List.iter
    (fun s ->
      let key =
        pack ~cat:s.st_cat ~core:(-1) ~fn:s.st_fn ~line:s.st_line
        lsr core_bits
      in
      match Int_tbl.find_opt tbl key with
      | Some c ->
          c.c_ps <- c.c_ps + s.st_dur;
          c.c_n <- c.c_n + 1
      | None -> Int_tbl.add tbl key { c_ps = s.st_dur; c_n = 1 })
    steps;
  Int_tbl.fold (fun key c acc -> (key, c) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match Int.compare b.c_ps a.c_ps with 0 -> Int.compare ka kb | c -> c)
  |> List.map (fun (key, c) ->
         let word = key lsl core_bits in
         (word_fn word, word_line word, word_cat word, c.c_ps, c.c_n))

(* Walked again only after more records. *)
let path t =
  let stamp = t.len + t.n_dropped in
  match t.path with
  | Some (at, p) when at = stamp -> p
  | _ ->
      let steps = walk t in
      let by_cat, by_cat_n = path_by_category steps in
      let p =
        {
          steps;
          n_steps = List.length steps;
          span = path_span steps;
          by_cat;
          by_cat_n;
          top = path_contributors steps;
        }
      in
      t.path <- Some (stamp, p);
      p

let critical_path t = (path t).steps

(* --- what-if estimators ------------------------------------------------------ *)

type whatif = {
  wi_name : string;
  wi_desc : string;
  wi_removed_ps : int;      (* total removable across contexts *)
  wi_new_wall_ps : int;
  wi_ceiling : float;       (* old wall / new wall, >= 1.0 *)
}

(* new wall under a counterfactual that removes [removable ctx]
   picoseconds from each context's finish time *)
let replay t removable =
  let new_wall = ref 1 in
  let removed = ref 0 in
  for ctx = 0 to t.n_ctx - 1 do
    let r = min (removable ctx) t.fin.(ctx) in
    removed := !removed + r;
    if t.fin.(ctx) - r > !new_wall then new_wall := t.fin.(ctx) - r
  done;
  (!removed, max 1 !new_wall)

let make_whatif t ~name ~desc removable =
  let removed, new_wall = replay t removable in
  {
    wi_name = name;
    wi_desc = desc;
    wi_removed_ps = removed;
    wi_new_wall_ps = new_wall;
    wi_ceiling =
      (if t.wall_ps <= 0 then 1.0
       else float_of_int t.wall_ps /. float_of_int new_wall);
  }

(* a context's engine counter, 0 before [finalize] *)
let stat t ctx f = if ctx < Array.length t.stats then f t.stats.(ctx) else 0

let whatifs t =
  [
    make_whatif t ~name:"zero-mesh"
      ~desc:"mesh hops take 0 ps (perfect on-chip network)"
      (fun ctx -> stat t ctx (fun s -> s.Stats.mesh_ps));
    make_whatif t ~name:"zero-lock-wait"
      ~desc:"every lock acquisition is uncontended"
      (fun ctx -> t.acct.(ctx).(Category.lock_wait));
    make_whatif t ~name:"zero-barrier-wait"
      ~desc:"every barrier arrival is the last (perfect balance)"
      (fun ctx -> t.acct.(ctx).(Category.barrier_wait));
    make_whatif t ~name:"mpb-speed-shared"
      ~desc:"shared DRAM lines served at on-chip MPB cost"
      (fun ctx ->
        let subst =
          stat t ctx (fun s -> s.Stats.shared_dram_lines) * t.mpb_line_ps
        in
        max 0 (t.acct.(ctx).(Category.mem_shared) - subst));
    make_whatif t ~name:"zero-sched-wait"
      ~desc:"every context owns a core (no time slicing)"
      (fun ctx -> t.acct.(ctx).(Category.sched_wait));
  ]

(* --- Perfetto flow arrows ----------------------------------------------------- *)

(* One flow chain threaded through the trace slices the path's events
   fall inside (pid = core, tid = ctx, matching Trace.to_chrome_events).
   [max_end_ps] clips the chain when the flat trace buffer truncated:
   steps past the last traced picosecond have no slice to bind to, so
   emitting them would leave dangling flow ids — the chain is instead
   re-terminated at the last in-range step.  Idle/sched steps carry no
   trace slice either and are skipped the same way. *)
let flow_events ?(flow_id = 1) ?max_end_ps t =
  let steps = critical_path t in
  let in_range s =
    s.st_core >= 0
    && s.st_cat < Category.n_busy   (* categories with trace slices *)
    && (match max_end_ps with None -> true | Some m -> s.st_end_ps <= m)
  in
  let steps = List.filter in_range steps in
  let n = List.length steps in
  if n < 2 then []
  else
    List.mapi
      (fun i s ->
        let phase =
          if i = 0 then Obs.Chrome.Flow_start
          else if i = n - 1 then Obs.Chrome.Flow_end
          else Obs.Chrome.Flow_step
        in
        (* a timestamp strictly inside the slice, so Perfetto binds the
           arrow to the right interval *)
        let ts_ps = s.st_end_ps - ((s.st_dur + 1) / 2) in
        Obs.Chrome.Flow
          {
            name = "critical-path";
            cat = Category.name s.st_cat;
            id = flow_id;
            pid = s.st_core;
            tid = s.st_ctx;
            ts_us = float_of_int ts_ps /. 1e6;
            phase;
          })
      steps

(* --- Prometheus ---------------------------------------------------------------- *)

let register_metrics t reg =
  let totals = account_totals t in
  for cat = 0 to Category.count - 1 do
    let c =
      Obs.Registry.counter reg
        ~help:"simulated picoseconds accounted per category (all contexts)"
        ~labels:[ ("category", Category.name cat) ]
        "sim_account_ps_total"
    in
    Obs.Counter.add c totals.(cat)
  done

(* --- rendering ------------------------------------------------------------------ *)

let pct num den =
  if den <= 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let fn_of profile slot =
  match profile with
  | Some p -> Profile.fn_name p slot
  | None -> if slot = 0 then "<toplevel>" else Printf.sprintf "fn#%d" slot

let line_of profile slot =
  match profile with
  | Some p -> Profile.line_name p slot
  | None -> if slot = 0 then "<unknown>" else Printf.sprintf "line#%d" slot

let render_account t =
  let totals = account_totals t in
  let counts = account_event_totals t in
  let sum, expect = identity t in
  let rows = ref [] in
  for cat = Category.count - 1 downto 0 do
    if totals.(cat) > 0 then
      rows :=
        [ Category.name cat;
          string_of_int totals.(cat);
          Printf.sprintf "%.1f%%" (pct totals.(cat) expect);
          string_of_int counts.(cat) ]
        :: !rows
  done;
  let table =
    Obs.render_table ([ "category"; "ps"; "share"; "intervals" ] :: !rows)
  in
  table
  ^ Printf.sprintf "accounted %d ps over %d contexts x %d ps wall (%s)\n" sum
      t.n_ctx t.wall_ps
      (if sum = expect then "identity holds"
       else Printf.sprintf "IDENTITY BROKEN: expected %d" expect)

let render_path ?profile ?(limit = 12) t =
  let p = path t in
  if p.n_steps = 0 then "critical path: empty (no events recorded)\n"
  else begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf
         "critical path: %d steps, %d ps (%.1f%% of the %d ps wall)%s\n"
         p.n_steps p.span (pct p.span t.wall_ps) t.wall_ps
         (if t.n_dropped > 0 then
            Printf.sprintf " [approximate: %d events dropped]" t.n_dropped
          else ""));
    let rows = ref [] in
    for cat = Category.count - 1 downto 0 do
      if p.by_cat.(cat) > 0 then
        rows :=
          [ Category.name cat;
            string_of_int p.by_cat.(cat);
            Printf.sprintf "%.1f%%" (pct p.by_cat.(cat) p.span) ]
          :: !rows
    done;
    Buffer.add_string buf
      (Obs.render_table ([ "path category"; "ps"; "share" ] :: !rows));
    let shown = List.filteri (fun i _ -> i < limit) p.top in
    Buffer.add_string buf "\nheaviest path contributors:\n";
    Buffer.add_string buf
      (Obs.render_table
         ([ "function"; "line"; "category"; "ps"; "steps" ]
         :: List.map
              (fun (fn, line, cat, ps, n) ->
                [ fn_of profile fn;
                  line_of profile line;
                  Category.name cat;
                  string_of_int ps;
                  string_of_int n ])
              shown));
    Buffer.contents buf
  end

let render_whatifs t =
  let rows =
    List.map
      (fun w ->
        [ w.wi_name;
          string_of_int w.wi_removed_ps;
          string_of_int w.wi_new_wall_ps;
          Printf.sprintf "%.2fx" w.wi_ceiling;
          w.wi_desc ])
      (whatifs t)
  in
  Obs.render_table
    ([ "what-if"; "removed-ps"; "new-wall-ps"; "ceiling"; "assumption" ]
    :: rows)

let render ?profile t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "where the time goes (full accounting):\n";
  Buffer.add_string buf (render_account t);
  Buffer.add_string buf "\n";
  Buffer.add_string buf (render_path ?profile t);
  Buffer.add_string buf "\nspeedup ceilings (what-if replay):\n";
  Buffer.add_string buf (render_whatifs t);
  Buffer.contents buf

(* --- JSON report ----------------------------------------------------------------- *)

let to_json ?profile t =
  let totals = account_totals t in
  let counts = account_event_totals t in
  let sum, expect = identity t in
  let p = path t in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"wall_ps\": %d,\n  \"contexts\": %d,\n  \"events\": %d,\n  \
        \"dropped\": %d,\n"
       t.wall_ps t.n_ctx t.len t.n_dropped);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"identity\": {\"sum_ps\": %d, \"wall_x_contexts\": %d, \"ok\": %b},\n"
       sum expect (sum = expect));
  Buffer.add_string buf "  \"account\": [";
  let first = ref true in
  for cat = 0 to Category.count - 1 do
    if totals.(cat) > 0 then begin
      if not !first then Buffer.add_string buf ", ";
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"category\": \"%s\", \"ps\": %d, \"intervals\": %d}"
           (Category.name cat) totals.(cat) counts.(cat))
    end
  done;
  Buffer.add_string buf "],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"critical_path\": {\"steps\": %d, \"span_ps\": %d, \
        \"by_category\": ["
       p.n_steps p.span);
  let first = ref true in
  for cat = 0 to Category.count - 1 do
    if p.by_cat.(cat) > 0 then begin
      if not !first then Buffer.add_string buf ", ";
      first := false;
      Buffer.add_string buf
        (Printf.sprintf "{\"category\": \"%s\", \"ps\": %d, \"steps\": %d}"
           (Category.name cat) p.by_cat.(cat) p.by_cat_n.(cat))
    end
  done;
  Buffer.add_string buf "], \"top\": [";
  List.iteri
    (fun i (fn, line, cat, ps, n) ->
      if i < 12 then begin
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf
          (Printf.sprintf
             "{\"function\": \"%s\", \"line\": \"%s\", \"category\": \
              \"%s\", \"ps\": %d, \"steps\": %d}"
             (Obs.json_escape (fn_of profile fn))
             (Obs.json_escape (line_of profile line))
             (Category.name cat) ps n)
      end)
    p.top;
  Buffer.add_string buf "]},\n";
  Buffer.add_string buf "  \"whatif\": [";
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\": \"%s\", \"removed_ps\": %d, \"new_wall_ps\": %d, \
            \"ceiling\": %.4f}"
           w.wi_name w.wi_removed_ps w.wi_new_wall_ps w.wi_ceiling))
    (whatifs t);
  Buffer.add_string buf "]\n";
  Buffer.add_string buf "}\n";
  Buffer.contents buf

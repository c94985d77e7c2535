(* Execution tracing: timed intervals per context, exportable in the
   Chrome tracing JSON format (chrome://tracing, Perfetto) so a
   simulation's interleaving can be inspected visually.

   Events live in a growable flat buffer (not a reversed list): recording
   is an array store, iteration is already in recording order, and
   aggregation is a single array pass.  Recording past [limit] does not
   silently stop — drops are counted and surfaced ([dropped]), so a
   truncated trace is always visibly truncated. *)

type event = {
  ctx : int;
  core : int;
  start_ps : int;
  end_ps : int;
  kind : Category.t;
}

type t = {
  mutable buf : event array;
  mutable len : int;
  limit : int;
  mutable n_dropped : int;
}

let dummy_event =
  { ctx = 0; core = 0; start_ps = 0; end_ps = 0; kind = Category.compute }

let create ?(limit = 1_000_000) () =
  { buf = Array.make 1024 dummy_event; len = 0; limit; n_dropped = 0 }

let record t ~ctx ~core ~start_ps ~end_ps kind =
  if end_ps > start_ps then begin
    if t.len >= t.limit then t.n_dropped <- t.n_dropped + 1
    else begin
      let cap = Array.length t.buf in
      if t.len = cap then begin
        let bigger =
          Array.make (min t.limit (max 1024 (2 * cap))) dummy_event
        in
        Array.blit t.buf 0 bigger 0 cap;
        t.buf <- bigger
      end;
      t.buf.(t.len) <- { ctx; core; start_ps; end_ps; kind };
      t.len <- t.len + 1
    end
  end

let events t = Array.to_list (Array.sub t.buf 0 t.len)

let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done

let length t = t.len

let dropped t = t.n_dropped

(* Total busy picoseconds per category, per context: one pass over the
   buffer into a fixed per-category accumulator. *)
let busy_by_kind t ~ctx =
  let acc = Array.make Category.n_busy 0 in
  for i = 0 to t.len - 1 do
    let e = t.buf.(i) in
    if e.ctx = ctx then acc.(e.kind) <- acc.(e.kind) + (e.end_ps - e.start_ps)
  done;
  Array.to_list (Array.mapi (fun k v -> (k, v)) acc)
  |> List.filter (fun (_, v) -> v > 0)

let max_end_ps t =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    if t.buf.(i).end_ps > !acc then acc := t.buf.(i).end_ps
  done;
  !acc

(* The same intervals as [Obs.Chrome] events, for merging with other
   tracks (compiler spans, profiler counter timelines) in one file. *)
let to_chrome_events t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    let e = t.buf.(i) in
    acc :=
      Obs.Chrome.Complete
        {
          name = Category.slice_name e.kind;
          cat = "sim";
          pid = e.core;
          tid = e.ctx;
          ts_us = float_of_int e.start_ps /. 1e6;
          dur_us = float_of_int (e.end_ps - e.start_ps) /. 1e6;
          args = [];
        }
      :: !acc
  done;
  !acc

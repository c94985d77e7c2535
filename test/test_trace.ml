(* Execution tracing. *)

let run_traced () =
  let trace = Scc.Trace.create () in
  let eng = Scc.Engine.create ~trace () in
  let mm = Scc.Engine.memmap eng in
  let shared = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:256 in
  let mpb = Scc.Memmap.alloc mm (Scc.Memmap.Mpb 0) ~bytes:64 in
  for core = 0 to 1 do
    ignore
      (Scc.Engine.spawn eng ~core (fun api ->
           api.Scc.Engine.compute 1_000;
           api.Scc.Engine.load shared ~bytes:64;
           api.Scc.Engine.load mpb ~bytes:32;
           api.Scc.Engine.barrier ()))
  done;
  Scc.Engine.run eng;
  (eng, trace)

let test_events_recorded () =
  let _, trace = run_traced () in
  let kinds =
    List.sort_uniq compare
      (List.map
         (fun (e : Scc.Trace.event) -> Scc.Trace.kind_to_string e.Scc.Trace.kind)
         (Scc.Trace.events trace))
  in
  List.iter
    (fun k ->
      if not (List.mem k kinds) then
        Alcotest.failf "missing %s events (have: %s)" k
          (String.concat ", " kinds))
    [ "compute"; "shared-dram"; "mpb"; "barrier" ]

let test_intervals_well_formed () =
  let eng, trace = run_traced () in
  let horizon = Scc.Engine.elapsed_ps eng in
  List.iter
    (fun (e : Scc.Trace.event) ->
      if e.Scc.Trace.start_ps < 0 || e.Scc.Trace.end_ps > horizon
         || e.Scc.Trace.start_ps >= e.Scc.Trace.end_ps then
        Alcotest.failf "bad interval [%d, %d] (horizon %d)"
          e.Scc.Trace.start_ps e.Scc.Trace.end_ps horizon)
    (Scc.Trace.events trace)

let test_busy_accounting () =
  let _, trace = run_traced () in
  let busy = Scc.Trace.busy_by_kind trace ~ctx:0 in
  let compute = try List.assoc Scc.Trace.Compute busy with Not_found -> 0 in
  Alcotest.(check int) "1000 cycles of compute traced"
    (Scc.Config.core_cycles_ps Scc.Config.default 1_000)
    compute

let test_chrome_json_shape () =
  let _, trace = run_traced () in
  let json = Obs.Chrome.to_json (Scc.Trace.to_chrome_events trace) in
  Alcotest.(check bool) "array brackets" true
    (String.length json > 2 && json.[0] = '[');
  let contains needle =
    let n = String.length needle and m = String.length json in
    let rec scan i = i + n <= m && (String.sub json i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "duration events" true (contains {|"ph":"X"|});
  Alcotest.(check bool) "kind names present" true (contains "shared-dram")

let test_limit_respected () =
  let trace = Scc.Trace.create ~limit:3 () in
  for i = 0 to 9 do
    Scc.Trace.record trace ~ctx:0 ~core:0 ~start_ps:(i * 10)
      ~end_ps:((i * 10) + 5) Scc.Trace.Compute
  done;
  Alcotest.(check int) "capped at 3" 3 (Scc.Trace.length trace)

let test_tracing_off_by_default () =
  let eng = Scc.Engine.create () in
  ignore (Scc.Engine.spawn eng ~core:0 (fun api -> api.Scc.Engine.compute 10));
  Scc.Engine.run eng;
  Alcotest.(check bool) "no trace" true (Scc.Engine.trace eng = None)

let test_drops_counted () =
  let trace = Scc.Trace.create ~limit:3 () in
  for i = 0 to 9 do
    Scc.Trace.record trace ~ctx:0 ~core:0 ~start_ps:(i * 10)
      ~end_ps:((i * 10) + 5) Scc.Trace.Compute
  done;
  (* zero-length intervals are skipped without counting as drops *)
  Scc.Trace.record trace ~ctx:0 ~core:0 ~start_ps:200 ~end_ps:200
    Scc.Trace.Compute;
  Alcotest.(check int) "kept" 3 (Scc.Trace.length trace);
  Alcotest.(check int) "dropped" 7 (Scc.Trace.dropped trace);
  let fresh = Scc.Trace.create () in
  Alcotest.(check int) "fresh trace drops nothing" 0
    (Scc.Trace.dropped fresh)

let test_max_end_ps () =
  let trace = Scc.Trace.create () in
  Alcotest.(check int) "empty" 0 (Scc.Trace.max_end_ps trace);
  Scc.Trace.record trace ~ctx:0 ~core:0 ~start_ps:0 ~end_ps:50
    Scc.Trace.Compute;
  Scc.Trace.record trace ~ctx:1 ~core:1 ~start_ps:10 ~end_ps:900
    Scc.Trace.Mem_shared;
  Scc.Trace.record trace ~ctx:0 ~core:0 ~start_ps:60 ~end_ps:80
    Scc.Trace.Barrier_wait;
  Alcotest.(check int) "latest end" 900 (Scc.Trace.max_end_ps trace)

(* --- property: exported Chrome events are well-formed --------------------- *)

let all_kinds =
  [| Scc.Trace.Compute; Scc.Trace.Mem_private; Scc.Trace.Mem_shared;
     Scc.Trace.Mem_mpb; Scc.Trace.Barrier_wait; Scc.Trace.Lock_wait |]

let gen_intervals =
  QCheck.Gen.(
    list_size (int_range 0 200)
      (quad (int_range 0 7) (int_range 0 1_000_000) (int_range 0 2_000)
         (int_range 0 (Array.length all_kinds - 1))))

let print_intervals l =
  String.concat ";"
    (List.map
       (fun (ctx, start, len, k) ->
         Printf.sprintf "(%d,%d,%d,%d)" ctx start len k)
       l)

let trace_of_intervals l =
  let trace = Scc.Trace.create () in
  List.iter
    (fun (ctx, start, len, k) ->
      Scc.Trace.record trace ~ctx ~core:ctx ~start_ps:start
        ~end_ps:(start + len) all_kinds.(k))
    l;
  trace

(* Structural JSON validity without a parser: balanced delimiters and an
   even number of quotes.  Names here contain nothing escapable, so
   every quote is a delimiter. *)
let json_balanced s =
  let depth = ref 0 and quotes = ref 0 and ok = ref true in
  String.iter
    (fun c ->
      match c with
      | '[' | '{' -> incr depth
      | ']' | '}' ->
          decr depth;
          if !depth < 0 then ok := false
      | '"' -> incr quotes
      | _ -> ())
    s;
  !ok && !depth = 0 && !quotes mod 2 = 0

let qcheck_chrome_events_well_formed =
  QCheck.Test.make ~count:200
    ~name:"trace: chrome events are valid and inside the horizon"
    (QCheck.make gen_intervals ~print:print_intervals)
    (fun l ->
      let trace = trace_of_intervals l in
      let horizon_us = float_of_int (Scc.Trace.max_end_ps trace) /. 1e6 in
      let events = Scc.Trace.to_chrome_events trace in
      List.iter
        (fun (e : Obs.Chrome.event) ->
          match e with
          | Obs.Chrome.Complete { ts_us; dur_us; _ } ->
              if ts_us < 0. || dur_us < 0. then
                QCheck.Test.fail_reportf "negative interval %f+%f" ts_us
                  dur_us;
              if ts_us +. dur_us > horizon_us +. 1e-9 then
                QCheck.Test.fail_reportf "event past max_end_ps: %f+%f > %f"
                  ts_us dur_us horizon_us
          | _ -> ())
        events;
      if not (json_balanced (Obs.Chrome.to_json events)) then
        QCheck.Test.fail_report "unbalanced chrome json";
      true)

let qcheck_busy_equals_event_sum =
  QCheck.Test.make ~count:100
    ~name:"trace: busy_by_kind sums exactly the recorded intervals"
    (QCheck.make gen_intervals ~print:print_intervals)
    (fun l ->
      let trace = trace_of_intervals l in
      let expected = Hashtbl.create 8 in
      List.iter
        (fun (ctx, _, len, k) ->
          if len > 0 then
            let key = (ctx, Scc.Trace.kind_index all_kinds.(k)) in
            Hashtbl.replace expected key
              (len
              + try Hashtbl.find expected key with Not_found -> 0))
        l;
      for ctx = 0 to 7 do
        List.iter
          (fun (kind, ps) ->
            let k = Scc.Trace.kind_index kind in
            let want =
              try Hashtbl.find expected (ctx, k) with Not_found -> 0
            in
            if ps <> want then
              QCheck.Test.fail_reportf "ctx %d kind %d: %d <> %d" ctx k ps
                want)
          (Scc.Trace.busy_by_kind trace ~ctx)
      done;
      true)

let suite =
  [
    Alcotest.test_case "events recorded" `Quick test_events_recorded;
    Alcotest.test_case "intervals well-formed" `Quick
      test_intervals_well_formed;
    Alcotest.test_case "busy accounting" `Quick test_busy_accounting;
    Alcotest.test_case "chrome json" `Quick test_chrome_json_shape;
    Alcotest.test_case "limit respected" `Quick test_limit_respected;
    Alcotest.test_case "drops counted" `Quick test_drops_counted;
    Alcotest.test_case "max_end_ps" `Quick test_max_end_ps;
    Alcotest.test_case "off by default" `Quick test_tracing_off_by_default;
    QCheck_alcotest.to_alcotest qcheck_chrome_events_well_formed;
    QCheck_alcotest.to_alcotest qcheck_busy_equals_event_sum;
  ]

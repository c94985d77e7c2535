(* The causal observability layer: the full-accounting identity
   (sum over contexts and categories == wall x contexts, exactly), the
   critical path, the what-if ceilings, and their agreement with the
   other observers (profiler lock table, engine stats).

   Everything here is simulated time, so every assertion is exact — no
   tolerances except where the acceptance criterion itself names one. *)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let data_dir name =
  if Sys.file_exists ("../" ^ name) then "../" ^ name else name

let parse path = Cfront.Parser.program ~file:path (read_file path)

let parse_src ~file src = Cfront.Parser.program ~file src

let translate ~ncores ~optimize program =
  let options =
    { Translate.Pass.default_options with Translate.Pass.ncores; optimize }
  in
  fst (Translate.Driver.translate_program ~options program)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---------------------------------------------------------------- *)
(* the accounting identity *)

(* The acceptance workload: translated hot_loop on 8 cores.  Under RCCE
   contexts == cores, so the identity literally reads "sum == cores x
   final ps". *)
let test_identity_hot_loop () =
  let program = parse (Filename.concat (data_dir "examples/c") "hot_loop.c") in
  let translated = translate ~ncores:8 ~optimize:false program in
  let cp = Scc.Critpath.create () in
  let r = Cexec.Interp.run_rcce ~critpath:cp ~ncores:8 translated in
  Alcotest.(check int) "contexts == cores" 8 (Scc.Critpath.n_ctxs cp);
  Alcotest.(check int) "wall == final ps" r.Cexec.Interp.elapsed_ps
    (Scc.Critpath.wall_ps cp);
  let sum, product = Scc.Critpath.identity cp in
  Alcotest.(check int) "identity: sum == wall x contexts" product sum;
  Alcotest.(check bool) "identity_ok" true (Scc.Critpath.identity_ok cp);
  (* the category totals are the same partition of the same ps *)
  let totals = Scc.Critpath.account_totals cp in
  Alcotest.(check int) "totals re-sum to the identity" sum
    (Array.fold_left ( + ) 0 totals)

(* ---------------------------------------------------------------- *)
(* agreement with the profiler: the zero-lock what-if removes exactly
   the picoseconds the mutex contention table reports *)

let test_zero_lock_matches_profiler () =
  let program =
    parse (Filename.concat (data_dir "examples/c") "locked_counter.c")
  in
  let cp = Scc.Critpath.create () in
  let profile = Scc.Profile.create () in
  let _r = Cexec.Interp.run_pthread ~profile ~critpath:cp program in
  let profiler_wait =
    List.fold_left
      (fun acc (row : Scc.Profile.lock_row) ->
        acc + row.Scc.Profile.lk_wait_ps)
      0 (Scc.Profile.locks profile)
  in
  Alcotest.(check bool) "the workload contends" true (profiler_wait > 0);
  let accounted =
    (Scc.Critpath.account_totals cp).(Scc.Critpath.cat_lock_wait)
  in
  Alcotest.(check int) "lock-wait account == profiler lock table"
    profiler_wait accounted;
  let wi =
    List.find
      (fun (w : Scc.Critpath.whatif) ->
        w.Scc.Critpath.wi_name = "zero-lock-wait")
      (Scc.Critpath.whatifs cp)
  in
  (* exact here; the acceptance bar is "within 1%" *)
  Alcotest.(check int) "zero-lock what-if removes the same ps"
    profiler_wait wi.Scc.Critpath.wi_removed_ps;
  Alcotest.(check bool) "identity still holds under profiling" true
    (Scc.Critpath.identity_ok cp)

(* ---------------------------------------------------------------- *)
(* naive vs -O: the shared-DRAM stall category collapses *)

let test_opt_shared_collapse () =
  let program =
    parse_src ~file:"hot_loop.c" (Exp.Csrc.hot_loop ~nt:8 ~steps:4096)
  in
  let run optimize =
    let cp = Scc.Critpath.create () in
    let r =
      Cexec.Interp.run_rcce ~critpath:cp ~ncores:8
        (translate ~ncores:8 ~optimize program)
    in
    (cp, Scc.Stats.total_shared_dram_loads
           (Scc.Engine.stats r.Cexec.Interp.engine))
  in
  let naive_cp, naive_loads = run false in
  let opt_cp, opt_loads = run true in
  Alcotest.(check bool) "identity holds, naive" true
    (Scc.Critpath.identity_ok naive_cp);
  Alcotest.(check bool) "identity holds, -O" true
    (Scc.Critpath.identity_ok opt_cp);
  let shared cp =
    (Scc.Critpath.account_totals cp).(Scc.Critpath.cat_mem_shared)
  in
  (* the PR 7 collapse (65560 -> 32 shared loads at this scale) must
     show up in the --explain accounting, not just the stats counter *)
  Alcotest.(check bool) "shared loads collapse >100x" true
    (naive_loads > 100 * opt_loads);
  Alcotest.(check bool) "shared-DRAM stall ps collapse >10x" true
    (shared naive_cp > 10 * shared opt_cp);
  let ceiling cp name =
    (List.find
       (fun (w : Scc.Critpath.whatif) -> w.Scc.Critpath.wi_name = name)
       (Scc.Critpath.whatifs cp))
      .Scc.Critpath.wi_ceiling
  in
  Alcotest.(check bool)
    "mpb-speed-shared ceiling is larger before the optimizer" true
    (ceiling naive_cp "mpb-speed-shared" >= ceiling opt_cp "mpb-speed-shared")

(* ---------------------------------------------------------------- *)
(* Perfetto flows stay well-formed when the trace buffer truncates *)

let check_flow_chain flows =
  let phases =
    List.map
      (function
        | Obs.Chrome.Flow { phase; _ } -> phase
        | _ -> Alcotest.fail "non-flow event in the chain")
      flows
  in
  match phases with
  | [] -> ()
  | [ _ ] -> Alcotest.fail "dangling single-event flow"
  | first :: rest ->
      Alcotest.(check bool) "chain starts with s" true
        (first = Obs.Chrome.Flow_start);
      let rec middle = function
        | [] -> Alcotest.fail "unreachable"
        | [ last ] ->
            Alcotest.(check bool) "chain ends with f" true
              (last = Obs.Chrome.Flow_end)
        | p :: tl ->
            Alcotest.(check bool) "interior events are t" true
              (p = Obs.Chrome.Flow_step);
            middle tl
      in
      middle rest;
      let ids =
        List.filter_map
          (function Obs.Chrome.Flow { id; _ } -> Some id | _ -> None)
          flows
      in
      List.iter
        (fun id -> Alcotest.(check int) "one flow id" (List.hd ids) id)
        ids

let test_flow_truncation () =
  let program = parse (Filename.concat (data_dir "examples/c") "hot_loop.c") in
  let translated = translate ~ncores:8 ~optimize:false program in
  let trace = Scc.Trace.create ~limit:64 () in
  let cp = Scc.Critpath.create () in
  ignore (Cexec.Interp.run_rcce ~trace ~critpath:cp ~ncores:8 translated);
  Alcotest.(check bool) "the trace truncated" true
    (Scc.Trace.dropped trace > 0);
  let horizon = Scc.Trace.max_end_ps trace in
  let flows = Scc.Critpath.flow_events ~max_end_ps:horizon cp in
  check_flow_chain flows;
  List.iter
    (function
      | Obs.Chrome.Flow { ts_us; _ } ->
          Alcotest.(check bool) "flow inside the retained window" true
            (ts_us <= (float_of_int horizon /. 1e6) +. 1e-9)
      | _ -> ())
    flows;
  (* unclipped, the chain is well-formed too *)
  check_flow_chain (Scc.Critpath.flow_events cp)

(* ---------------------------------------------------------------- *)
(* critical path sanity on a bare engine run *)

let test_path_sanity () =
  let cp = Scc.Critpath.create () in
  let eng = Scc.Engine.create ~critpath:cp () in
  let addr =
    Scc.Memmap.alloc (Scc.Engine.memmap eng) (Scc.Memmap.Private 0) ~bytes:256
  in
  ignore
    (Scc.Engine.spawn eng ~core:0 (fun api ->
         for i = 0 to 63 do
           api.Scc.Engine.compute 20;
           api.Scc.Engine.load (addr + (i mod 16 * 4)) ~bytes:4
         done));
  Scc.Engine.run eng;
  Alcotest.(check bool) "identity" true (Scc.Critpath.identity_ok cp);
  let path = Scc.Critpath.critical_path cp in
  Alcotest.(check bool) "path is non-empty" true (path <> []);
  let span = Scc.Critpath.path_span path in
  Alcotest.(check bool) "span within the wall" true
    (span > 0 && span <= Scc.Critpath.wall_ps cp);
  let by_cat, _ = Scc.Critpath.path_by_category path in
  Alcotest.(check int) "per-category path ps re-sum to the span" span
    (Array.fold_left ( + ) 0 by_cat);
  (* single context, one core: no scheduler wait on the path *)
  Alcotest.(check int) "no sched-wait for a lone context" 0
    by_cat.(Scc.Critpath.cat_sched_wait)

(* ---------------------------------------------------------------- *)
(* handles: an edge is followed only when its handle names a stored
   event, the cap counts events over all contexts, and what does not
   fit the packing raises *)

let test_handles () =
  let compute cp ~ctx ~dur ~end_ps ~pred =
    Scc.Critpath.record cp ~ctx ~core:ctx ~cat:Scc.Critpath.cat_compute ~dur
      ~end_ps ~fn:1 ~line:2 ~pred
  in
  let cp = Scc.Critpath.create () in
  Alcotest.(check int) "no event, no handle" (-1)
    (Scc.Critpath.last_event cp ~ctx:0);
  compute cp ~ctx:0 ~dur:10 ~end_ps:10 ~pred:(-1);
  let h0 = Scc.Critpath.last_event cp ~ctx:0 in
  compute cp ~ctx:1 ~dur:5 ~end_ps:5 ~pred:(-1);
  Scc.Critpath.record cp ~ctx:1 ~core:1 ~cat:Scc.Critpath.cat_lock_wait
    ~dur:5 ~end_ps:10 ~fn:1 ~line:3 ~pred:h0;
  compute cp ~ctx:1 ~dur:20 ~end_ps:30 ~pred:(-1);
  let path = Scc.Critpath.critical_path cp in
  Alcotest.(check (list (pair int int))) "the wait's edge leads to ctx 0"
    [ (0, 10); (1, 10); (1, 30) ]
    (List.map
       (fun (s : Scc.Critpath.step) -> (s.st_ctx, s.st_end_ps))
       path);
  Alcotest.(check (list (pair int int))) "steps keep their slots"
    [ (1, 2); (1, 3); (1, 2) ]
    (List.map (fun (s : Scc.Critpath.step) -> (s.st_fn, s.st_line)) path);
  (* a later record replaces the remembered path *)
  compute cp ~ctx:0 ~dur:50 ~end_ps:60 ~pred:(-1);
  Alcotest.(check (list (pair int int))) "the path follows a new record"
    [ (0, 10); (0, 60) ]
    (List.map
       (fun (s : Scc.Critpath.step) -> (s.st_ctx, s.st_end_ps))
       (Scc.Critpath.critical_path cp));
  (* a handle of another recorder's fifth event names nothing here *)
  let other = Scc.Critpath.create () in
  for i = 1 to 5 do compute other ~ctx:0 ~dur:1 ~end_ps:i ~pred:(-1) done;
  let stale = Scc.Critpath.last_event other ~ctx:0 in
  let cp = Scc.Critpath.create () in
  compute cp ~ctx:0 ~dur:10 ~end_ps:10 ~pred:(-1);
  compute cp ~ctx:1 ~dur:20 ~end_ps:20 ~pred:stale;
  Alcotest.(check (list int)) "a stale handle is program order" [ 1 ]
    (List.map
       (fun (s : Scc.Critpath.step) -> s.st_ctx)
       (Scc.Critpath.critical_path cp));
  (* the cap counts every context's events *)
  let cp = Scc.Critpath.create ~limit:3 () in
  for ctx = 0 to 2 do
    compute cp ~ctx ~dur:1 ~end_ps:1 ~pred:(-1);
    compute cp ~ctx ~dur:1 ~end_ps:2 ~pred:(-1)
  done;
  Alcotest.(check (pair int int)) "3 stored, 3 dropped" (3, 3)
    (Scc.Critpath.events cp, Scc.Critpath.dropped cp);
  Alcotest.(check int) "a context past the cap has no handle" (-1)
    (Scc.Critpath.last_event cp ~ctx:2);
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let cp = Scc.Critpath.create () in
  let record ?(core = 0) ?(fn = 0) ?(line = 0) () =
    Scc.Critpath.record cp ~ctx:0 ~core ~cat:Scc.Critpath.cat_compute ~dur:1
      ~end_ps:1 ~fn ~line ~pred:(-1)
  in
  raises "fn slot 2^24" (record ~fn:(1 lsl 24));
  raises "line slot -1" (record ~line:(-1));
  raises "core -2" (record ~core:(-2));
  raises "context 2^20" (fun () ->
      Scc.Critpath.record cp ~ctx:(1 lsl 20) ~core:0
        ~cat:Scc.Critpath.cat_compute ~dur:1 ~end_ps:1 ~fn:0 ~line:0
        ~pred:(-1));
  raises "limit 2^43" (fun () ->
      ignore (Scc.Critpath.create ~limit:(1 lsl 43) ()))

(* ---------------------------------------------------------------- *)
(* report surfaces *)

let test_render_and_json () =
  let program =
    parse (Filename.concat (data_dir "examples/c") "locked_counter.c")
  in
  let cp = Scc.Critpath.create () in
  let profile = Scc.Profile.create () in
  ignore (Cexec.Interp.run_pthread ~profile ~critpath:cp program);
  let rendered = Scc.Critpath.render ~profile cp in
  Alcotest.(check bool) "render reports the identity" true
    (contains rendered "identity holds");
  Alcotest.(check bool) "render names a C function" true
    (contains rendered "work");
  Alcotest.(check bool) "render has the what-if table" true
    (contains rendered "zero-lock-wait");
  let json = Scc.Critpath.to_json ~profile cp in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" needle) true
        (contains json needle))
    [ {|"identity"|}; {|"ok": true|}; {|"critical_path"|}; {|"whatif"|};
      {|"category": "lock-wait"|} ]

(* the engine publishes the account as labelled Prometheus counters *)
let test_registry_metrics () =
  let program = parse (Filename.concat (data_dir "examples/c") "hot_loop.c") in
  let translated = translate ~ncores:8 ~optimize:false program in
  let cp = Scc.Critpath.create () in
  let profile = Scc.Profile.create () in
  ignore
    (Cexec.Interp.run_rcce ~profile ~critpath:cp ~ncores:8 translated);
  let text = Obs.Registry.to_prometheus (Scc.Profile.registry profile) in
  Alcotest.(check bool) "account family present" true
    (contains text {|sim_account_ps_total{category="compute"}|});
  Alcotest.(check bool) "no scheduler-partition family" false
    (contains text "sim_domain_events")

(* ---------------------------------------------------------------- *)
(* golden reports: every byte of the --explain output is pinned.  The
   runs are built the way [hsmcc run] builds them (a profiler for the
   names, a critical-path recorder, [to_json ~profile]); the source file
   names match a run from the repository root. *)

let golden name = read_file (Filename.concat (data_dir "test/golden") name)

let explain_rcce ?limit ?trace ~ncores name =
  let program =
    Cfront.Parser.program ~file:("test/golden/" ^ name) (golden name)
  in
  let profile = Scc.Profile.create () in
  let cp = Scc.Critpath.create ?limit () in
  ignore (Cexec.Interp.run_rcce ?trace ~profile ~critpath:cp ~ncores program);
  (profile, cp)

let test_golden_reports () =
  let check name actual =
    Alcotest.(check string) (name ^ " is byte-identical") (golden name) actual
  in
  List.iter
    (fun (src, ncores, json) ->
      let profile, cp = explain_rcce ~ncores src in
      check json (Scc.Critpath.to_json ~profile cp))
    [ ("hot_loop.opt.rcce.c", 8, "hot_loop.opt.rcce.explain.json");
      ("locked_counter.rcce.c", 4, "locked_counter.rcce.explain.json") ];
  (* a capped recorder: the path bottoms out at the oldest stored
     ancestor, the report says how many events were dropped, and the
     flow chain is clipped to a truncated trace *)
  let trace = Scc.Trace.create ~limit:64 () in
  let profile, cp =
    explain_rcce ~limit:2000 ~trace ~ncores:8 "hot_loop.opt.rcce.c"
  in
  check "hot_loop.opt.rcce.capped.explain.txt"
    (Scc.Critpath.render ~profile cp);
  check "hot_loop.opt.rcce.capped.flows.json"
    (Obs.Chrome.to_json
       (Scc.Critpath.flow_events ~max_end_ps:(Scc.Trace.max_end_ps trace) cp));
  (* the Pthread run CI diffs against the same golden *)
  let file = "examples/c/locked_counter.c" in
  let program =
    Cfront.Parser.program ~file
      (read_file (Filename.concat (data_dir "examples/c") "locked_counter.c"))
  in
  let profile = Scc.Profile.create () in
  let cp = Scc.Critpath.create () in
  ignore (Cexec.Interp.run_pthread ~profile ~critpath:cp program);
  check "locked_counter.explain.json" (Scc.Critpath.to_json ~profile cp)

let suite =
  [
    Alcotest.test_case "identity: hot_loop on 8 cores" `Quick
      test_identity_hot_loop;
    Alcotest.test_case "zero-lock what-if == profiler lock table" `Quick
      test_zero_lock_matches_profiler;
    Alcotest.test_case "naive vs -O: shared stalls collapse" `Quick
      test_opt_shared_collapse;
    Alcotest.test_case "flows well-formed under truncation" `Quick
      test_flow_truncation;
    Alcotest.test_case "critical path sanity" `Quick test_path_sanity;
    Alcotest.test_case "handles, cap and packing" `Quick test_handles;
    Alcotest.test_case "render + json" `Quick test_render_and_json;
    Alcotest.test_case "registry metrics" `Quick test_registry_metrics;
    Alcotest.test_case "golden reports byte-identical" `Quick
      test_golden_reports;
  ]

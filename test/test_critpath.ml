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
    Alcotest.test_case "render + json" `Quick test_render_and_json;
    Alcotest.test_case "registry metrics" `Quick test_registry_metrics;
  ]

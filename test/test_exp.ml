(* The experiment harness: the rendered sections contain what the paper's
   tables and figures contain, at quick scale. *)

let contains needle hay =
  let n = String.length needle and m = String.length hay in
  let rec scan i = i + n <= m && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let check_contains msg needle hay =
  if not (contains needle hay) then
    Alcotest.failf "%s: %S not found in:\n%s" msg needle hay

let test_table_4_1 () =
  let t = Exp.Experiments.table_4_1 () in
  List.iter
    (fun name -> check_contains "row present" name t)
    [ "global"; "ptr"; "sum"; "tLocal"; "tid"; "local"; "tmp"; "threads";
      "rc" ]

let test_table_4_2 () =
  let t = Exp.Experiments.table_4_2 () in
  check_contains "headers" "Stage 1" t;
  check_contains "tmp row flips to true" "tmp" t

let test_table_6_1 () =
  let t = Exp.Experiments.table_6_1 () in
  check_contains "core frequency" "800 MHz" t;
  check_contains "mesh frequency" "1600 MHz" t;
  check_contains "dram frequency" "1066 MHz" t;
  check_contains "32 cores" "32 cores" t;
  check_contains "32 threads" "32 threads" t

let test_translation_example () =
  let t = Exp.Experiments.translation_example () in
  check_contains "RCCE_APP present" "RCCE_APP" t;
  check_contains "shmalloc present" "RCCE_shmalloc" t

let test_fig_6_1_quick () =
  let rows = Exp.Experiments.fig_6_1_data ~scale:Exp.Experiments.Quick () in
  Alcotest.(check int) "six benchmarks" 6 (List.length rows);
  List.iter
    (fun (r : Exp.Experiments.fig_6_1_row) ->
      Alcotest.(check bool) (r.Exp.Experiments.name ^ " verified") true
        r.Exp.Experiments.verified;
      Alcotest.(check bool)
        (Printf.sprintf "%s speedup %.1f > 1" r.Exp.Experiments.name
           r.Exp.Experiments.speedup)
        true
        (r.Exp.Experiments.speedup > 1.0))
    rows;
  (* the paper's ordering: pi beats primes (imbalance) *)
  let speedup name =
    (List.find (fun (r : Exp.Experiments.fig_6_1_row) -> r.Exp.Experiments.name = name) rows)
      .Exp.Experiments.speedup
  in
  Alcotest.(check bool) "pi > primes" true (speedup "pi" > speedup "primes")

let test_fig_6_2_quick () =
  let rows = Exp.Experiments.fig_6_2_data ~scale:Exp.Experiments.Quick () in
  List.iter
    (fun (r : Exp.Experiments.fig_6_2_row) ->
      Alcotest.(check bool) (r.Exp.Experiments.name ^ " verified") true
        r.Exp.Experiments.verified)
    rows;
  let improvement name =
    (List.find (fun (r : Exp.Experiments.fig_6_2_row) -> r.Exp.Experiments.name = name) rows)
      .Exp.Experiments.improvement
  in
  (* compute benchmarks gain nothing; a memory benchmark gains *)
  Alcotest.(check bool) "pi flat" true (improvement "pi" < 1.2);
  Alcotest.(check bool) "dot gains" true (improvement "dot" > 1.5)

let test_fig_6_3_quick () =
  let rows = Exp.Experiments.fig_6_3_data ~scale:Exp.Experiments.Quick () in
  Alcotest.(check int) "eight core counts" 8 (List.length rows);
  (* speedups increase with core count *)
  let rec ascending = function
    | (a : Exp.Experiments.fig_6_3_row) :: (b :: _ as rest) ->
        a.Exp.Experiments.speedup < b.Exp.Experiments.speedup
        && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone scaling" true (ascending rows);
  let last = List.nth rows (List.length rows - 1) in
  Alcotest.(check bool) "48 cores well above 30x" true
    (last.Exp.Experiments.speedup > 30.0)

let test_ablation_partition () =
  let t = Exp.Experiments.ablation_partition () in
  check_contains "strategies present" "size-ascending" t;
  check_contains "density present" "access-density" t;
  check_contains "off-chip row" "all-off-chip" t

let test_interp_end_to_end () =
  let rows, speedup =
    Exp.Experiments.interp_end_to_end ~scale:Exp.Experiments.Quick ()
  in
  Alcotest.(check int) "two configurations" 2 (List.length rows);
  Alcotest.(check bool)
    (Printf.sprintf "translated faster (%.1fx)" speedup)
    true (speedup > 2.0);
  (* both computed the same pi *)
  match rows with
  | [ a; b ] ->
      let first_line s =
        match String.split_on_char '\n' s.Exp.Experiments.output with
        | l :: _ -> l
        | [] -> ""
      in
      Alcotest.(check string) "same result" (first_line a) (first_line b)
  | _ -> Alcotest.fail "expected two rows"

let test_bar_chart () =
  let chart = Exp.Tabulate.bar_chart [ ("a", 2.0); ("bb", 4.0) ] in
  check_contains "labels aligned" "a " chart;
  check_contains "bars drawn" "####" chart

let test_tabulate_render () =
  let t = Obs.render_table ~rule:true [ [ "A"; "B" ]; [ "1"; "22" ] ] in
  Alcotest.(check string) "aligned with rule" "A  B\n-----\n1  22\n" t

let suite =
  [
    Alcotest.test_case "table 4.1" `Quick test_table_4_1;
    Alcotest.test_case "table 4.2" `Quick test_table_4_2;
    Alcotest.test_case "table 6.1" `Quick test_table_6_1;
    Alcotest.test_case "translation example" `Quick test_translation_example;
    Alcotest.test_case "fig 6.1 quick" `Slow test_fig_6_1_quick;
    Alcotest.test_case "fig 6.2 quick" `Slow test_fig_6_2_quick;
    Alcotest.test_case "fig 6.3 quick" `Slow test_fig_6_3_quick;
    Alcotest.test_case "ablation partition" `Quick test_ablation_partition;
    Alcotest.test_case "interp end to end" `Slow test_interp_end_to_end;
    Alcotest.test_case "bar chart" `Quick test_bar_chart;
    Alcotest.test_case "tabulate" `Quick test_tabulate_render;
  ]

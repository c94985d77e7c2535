(* The observability core: counters, histograms, registry sinks, Chrome
   trace events (including file merging), and epoch-rebased spans. *)

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec scan i =
    i + n <= m && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

(* --- counters ----------------------------------------------------------- *)

let test_counter_basics () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg ~help:"x" "a_total" in
  Obs.Counter.incr c;
  Obs.Counter.add c 2;
  Alcotest.(check int) "value" 3 (Obs.Counter.value c);
  Alcotest.(check string) "name" "a_total" (Obs.Counter.name c);
  Alcotest.check_raises "monotonic" (Invalid_argument
    "Obs.Counter.add: counters are monotonic")
    (fun () -> Obs.Counter.add c (-1))

let test_counter_idempotent_registration () =
  let reg = Obs.Registry.create () in
  let a = Obs.Registry.counter reg "n_total" in
  Obs.Counter.add a 7;
  let b = Obs.Registry.counter reg "n_total" in
  Alcotest.(check int) "same instrument" 7 (Obs.Counter.value b)

(* --- histograms ---------------------------------------------------------- *)

let test_histogram_buckets () =
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram reg ~bounds:[| 10; 100 |] "h" in
  List.iter (Obs.Histogram.observe h) [ 5; 10; 50; 500 ];
  Alcotest.(check int) "count" 4 (Obs.Histogram.count h);
  Alcotest.(check int) "sum" 565 (Obs.Histogram.sum h);
  (* bounds are inclusive: 10 lands in the first bucket *)
  Alcotest.(check (array int)) "per-bucket" [| 2; 1; 1 |]
    (Obs.Histogram.bucket_counts h)

let test_histogram_bad_bounds () =
  let reg = Obs.Registry.create () in
  let mk bounds () = ignore (Obs.Registry.histogram reg ~bounds "bad") in
  Alcotest.check_raises "empty" (Invalid_argument "Obs.Histogram: no buckets")
    (mk [||]);
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Obs.Histogram: bounds must be strictly increasing")
    (mk [| 5; 5 |])

(* --- registry sinks ------------------------------------------------------- *)

let golden_registry () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg ~help:"x" "a_total" in
  Obs.Counter.add c 3;
  let h = Obs.Registry.histogram reg ~bounds:[| 10; 100 |] "h" in
  List.iter (Obs.Histogram.observe h) [ 5; 50; 500 ];
  reg

let test_prometheus_golden () =
  Alcotest.(check string) "exposition text"
    "# HELP a_total x\n\
     # TYPE a_total counter\n\
     a_total 3\n\
     # TYPE h histogram\n\
     h_bucket{le=\"10\"} 1\n\
     h_bucket{le=\"100\"} 2\n\
     h_bucket{le=\"+Inf\"} 3\n\
     h_sum 555\n\
     h_count 3\n"
    (Obs.Registry.to_prometheus (golden_registry ()))

let test_jsonl_golden () =
  Alcotest.(check string) "json lines"
    ({|{"type":"counter","name":"a_total","value":3}|} ^ "\n"
    ^ {|{"type":"histogram","name":"h","sum":555,"count":3,"bounds":[10,100],"counts":[1,1,1]}|}
    ^ "\n")
    (Obs.Registry.to_jsonl (golden_registry ()))

let test_table_golden () =
  Alcotest.(check string) "table"
    "name     kind       value\n\
     a_total  counter    3\n\
     h        histogram  count=3 sum=555\n"
    (Obs.Registry.to_table (golden_registry ()))

(* --- json escaping -------------------------------------------------------- *)

let test_json_escape () =
  (* quote, backslash and newline get symbolic escapes; other control
     characters (here, tab) the \u form *)
  Alcotest.(check string) "specials" {|a\"b\\c\nd\u0009e|}
    (Obs.json_escape "a\"b\\c\nd\te")

(* --- chrome events -------------------------------------------------------- *)

let test_chrome_complete_golden () =
  let e =
    Obs.Chrome.Complete
      { name = "f"; cat = "sim"; pid = 1; tid = 2; ts_us = 1.5;
        dur_us = 2.25; args = [ ("k", "v") ] }
  in
  Alcotest.(check string) "complete event"
    ({|[{"name":"f","cat":"sim","ph":"X","ts":1.500,"dur":2.250,"pid":1,"tid":2,"args":{"k":"v"}}]|}
    ^ "\n")
    (Obs.Chrome.to_json [ e ])

let test_chrome_counter_and_metadata () =
  let json =
    Obs.Chrome.to_json
      [ Obs.Chrome.Process_name { pid = 7; name = "sim" };
        Obs.Chrome.Thread_name { pid = 7; tid = 1; name = "ue1" };
        Obs.Chrome.Counter
          { name = "m"; pid = 9998; ts_us = 0.5;
            series = [ ("a", 1.0); ("b", 0.25) ] } ]
  in
  Alcotest.(check bool) "process metadata" true
    (contains json
       {|{"name":"process_name","ph":"M","pid":7,"tid":0,"args":{"name":"sim"}}|});
  Alcotest.(check bool) "thread metadata" true
    (contains json
       {|{"name":"thread_name","ph":"M","pid":7,"tid":1,"args":{"name":"ue1"}}|});
  Alcotest.(check bool) "counter series" true
    (contains json {|"args":{"a":1.0000,"b":0.2500}|})

let complete ~name ~ts_us =
  Obs.Chrome.Complete
    { name; cat = "t"; pid = 0; tid = 0; ts_us; dur_us = 1.0; args = [] }

let test_write_merge_appends () =
  let path = Filename.temp_file "obs_merge" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Chrome.write_merge path [ complete ~name:"compile" ~ts_us:0.0 ];
      Obs.Chrome.write_merge path [ complete ~name:"simulate" ~ts_us:5.0 ];
      let ic = open_in path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check bool) "one array" true
        (String.length s > 2 && s.[0] = '[' && contains s "]\n"
        && not (contains s "]["));
      Alcotest.(check bool) "first write kept" true (contains s "compile");
      Alcotest.(check bool) "second write merged" true (contains s "simulate"))

let test_write_merge_overwrites_garbage () =
  let path = Filename.temp_file "obs_merge" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "this is not a trace";
      close_out oc;
      Obs.Chrome.write_merge path [ complete ~name:"fresh" ~ts_us:0.0 ];
      let ic = open_in path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check bool) "old content gone" true
        (not (contains s "not a trace"));
      Alcotest.(check bool) "new event present" true (contains s "fresh"))

(* --- spans ----------------------------------------------------------------- *)

let test_spans_epoch_rebase () =
  let sp = Obs.Spans.create ~epoch:1_000 Obs.Nanoseconds in
  Obs.Spans.record sp ~name:"p" ~cat:"fact" ~pid:1 ~tid:0 ~start:2_000
    ~dur:500 ();
  Obs.Spans.record sp ~name:"q" ~pid:1 ~tid:0 ~start:3_000 ~dur:(-4) ();
  Alcotest.(check int) "length" 2 (Obs.Spans.length sp);
  match Obs.Spans.spans sp with
  | [ a; b ] ->
      Alcotest.(check int) "rebased start" 1_000 a.Obs.sp_start;
      Alcotest.(check int) "negative dur clamped" 0 b.Obs.sp_dur;
      (match Obs.Spans.to_chrome sp with
      | Obs.Chrome.Complete c :: _ ->
          Alcotest.(check (float 1e-9)) "ns -> us" 1.0 c.ts_us;
          Alcotest.(check (float 1e-9)) "dur ns -> us" 0.5 c.dur_us
      | _ -> Alcotest.fail "expected a complete event")
  | _ -> Alcotest.fail "expected two spans in order"

let test_us_of () =
  Alcotest.(check (float 1e-9)) "ps" 2.5 (Obs.us_of Obs.Picoseconds 2_500_000);
  Alcotest.(check (float 1e-9)) "ns" 1.5 (Obs.us_of Obs.Nanoseconds 1_500)

let test_render_table () =
  Alcotest.(check string) "alignment"
    "ab    c\n\
     a     bcdef\n\
     abcd  e\n"
    (Obs.render_table
       [ [ "ab"; "c" ]; [ "a"; "bcdef" ]; [ "abcd"; "e" ] ])

(* --- labelled counters (one family, many label sets) ------------------ *)

let count_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let n = ref 0 in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then incr n
  done;
  !n

let test_labelled_counters () =
  let r = Obs.Registry.create () in
  let c0 =
    Obs.Registry.counter r ~help:"simulated ps per accounting category"
      ~labels:[ ("category", "compute") ] "sim_account_ps_total"
  in
  let c1 =
    Obs.Registry.counter r ~help:"simulated ps per accounting category"
      ~labels:[ ("category", "idle") ] "sim_account_ps_total"
  in
  Obs.Counter.add c0 5;
  Obs.Counter.add c1 7;
  (* same (name, labels) -> same instrument; distinct labels -> distinct *)
  let c0' =
    Obs.Registry.counter r ~labels:[ ("category", "compute") ]
      "sim_account_ps_total"
  in
  Obs.Counter.incr c0';
  Alcotest.(check int) "same instrument per label set" 6
    (Obs.Counter.value c0);
  Alcotest.(check int) "other label set untouched" 7 (Obs.Counter.value c1);
  let text = Obs.Registry.to_prometheus r in
  Alcotest.(check int) "one # HELP per family" 1
    (count_substring ~needle:"# HELP sim_account_ps_total" text);
  Alcotest.(check int) "one # TYPE per family" 1
    (count_substring ~needle:"# TYPE sim_account_ps_total counter" text);
  Alcotest.(check bool) "compute sample" true
    (contains text {|sim_account_ps_total{category="compute"} 6|});
  Alcotest.(check bool) "idle sample" true
    (contains text {|sim_account_ps_total{category="idle"} 7|})

let test_label_string_sorted () =
  let r = Obs.Registry.create () in
  let c =
    Obs.Registry.counter r ~labels:[ ("b", "2"); ("a", "1") ] "x_total"
  in
  Alcotest.(check string) "labels render sorted by key" {|{a="1",b="2"}|}
    (Obs.Counter.label_string c);
  let plain = Obs.Registry.counter r "y_total" in
  Alcotest.(check string) "no labels, no braces" ""
    (Obs.Counter.label_string plain)

let test_flow_json () =
  let flow phase ts_us =
    Obs.Chrome.Flow
      { name = "critical-path"; cat = "critpath"; id = 9; pid = 1; tid = 2;
        ts_us; phase }
  in
  let json =
    Obs.Chrome.to_json
      [ flow Obs.Chrome.Flow_start 1.0;
        flow Obs.Chrome.Flow_step 2.0;
        flow Obs.Chrome.Flow_end 3.0 ]
  in
  Alcotest.(check int) "one start" 1
    (count_substring ~needle:{|"ph":"s"|} json);
  Alcotest.(check int) "one step" 1
    (count_substring ~needle:{|"ph":"t"|} json);
  Alcotest.(check int) "one end" 1
    (count_substring ~needle:{|"ph":"f"|} json);
  Alcotest.(check int) "terminator binds to enclosing slice" 1
    (count_substring ~needle:{|"bp":"e"|} json);
  Alcotest.(check int) "shared flow id" 3
    (count_substring ~needle:{|"id":9|} json)

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "counter registration idempotent" `Quick
      test_counter_idempotent_registration;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram bad bounds" `Quick test_histogram_bad_bounds;
    Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
    Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
    Alcotest.test_case "table golden" `Quick test_table_golden;
    Alcotest.test_case "json escape" `Quick test_json_escape;
    Alcotest.test_case "chrome complete golden" `Quick
      test_chrome_complete_golden;
    Alcotest.test_case "chrome counter + metadata" `Quick
      test_chrome_counter_and_metadata;
    Alcotest.test_case "write_merge appends" `Quick test_write_merge_appends;
    Alcotest.test_case "write_merge overwrites garbage" `Quick
      test_write_merge_overwrites_garbage;
    Alcotest.test_case "spans epoch rebase" `Quick test_spans_epoch_rebase;
    Alcotest.test_case "us_of" `Quick test_us_of;
    Alcotest.test_case "render_table" `Quick test_render_table;
    Alcotest.test_case "labelled counters" `Quick test_labelled_counters;
    Alcotest.test_case "label_string sorted" `Quick test_label_string_sorted;
    Alcotest.test_case "flow event json" `Quick test_flow_json;
  ]

(* Stage 4: Algorithm 3 and the ablation strategies, plus qcheck
   invariants (capacity respected, every variable placed, all-on-chip when
   everything fits). *)

let item name bytes accesses =
  { Partition.Partitioner.var = Ir.Var_id.global name; bytes; accesses }

let spec = Partition.Memspec.scc

let test_memspec () =
  Alcotest.(check int) "384 KB total MPB" (384 * 1024)
    (Partition.Memspec.mpb_total spec);
  Alcotest.(check int) "8 KB per core for one core" (8 * 1024)
    (Partition.Memspec.on_chip_capacity spec ~ncores:1);
  Alcotest.(check int) "32 cores" (256 * 1024)
    (Partition.Memspec.on_chip_capacity spec ~ncores:32);
  Alcotest.(check int) "line rounding" 64
    (Partition.Memspec.round_to_line spec 33);
  match Partition.Memspec.on_chip_capacity spec ~ncores:49 with
  | _ -> Alcotest.fail "49 cores should be rejected"
  | exception Invalid_argument _ -> ()

let test_all_fits_goes_on_chip () =
  let items = [ item "a" 100 10; item "b" 2000 5; item "c" 4 100 ] in
  let r =
    Partition.Partitioner.partition spec ~capacity:(8 * 1024) items
  in
  List.iter
    (fun (a : Partition.Partitioner.assignment) ->
      Alcotest.(check bool)
        (Ir.Var_id.to_string a.Partition.Partitioner.item.Partition.Partitioner.var
        ^ " on chip")
        true
        (a.Partition.Partitioner.placement = Partition.Partitioner.On_chip))
    r.Partition.Partitioner.assignments

let test_greedy_ascending () =
  (* capacity for the two small ones only: Algorithm 3 fills ascending *)
  let items = [ item "big" 4096 1000; item "small" 32 1; item "mid" 64 1 ] in
  let r = Partition.Partitioner.partition spec ~capacity:128 items in
  let placement name =
    match Partition.Partitioner.placement_of r (Ir.Var_id.global name) with
    | Some p -> p
    | None -> Alcotest.failf "no placement for %s" name
  in
  Alcotest.(check bool) "small on chip" true
    (placement "small" = Partition.Partitioner.On_chip);
  Alcotest.(check bool) "mid on chip" true
    (placement "mid" = Partition.Partitioner.On_chip);
  Alcotest.(check bool) "big off chip" true
    (placement "big" = Partition.Partitioner.Off_chip)

let test_density_beats_size_for_hot_array () =
  (* one hot array the size-ascending greedy skips (scalars fill first) *)
  let items =
    item "hot" 1024 100_000
    :: List.init 40 (fun i -> item (Printf.sprintf "cold%d" i) 32 1)
  in
  let by strategy =
    Partition.Partitioner.on_chip_access_fraction
      (Partition.Partitioner.partition ~strategy spec ~capacity:1024 items)
  in
  let size = by Partition.Partitioner.Size_ascending in
  let density = by Partition.Partitioner.Access_density in
  Alcotest.(check bool)
    (Printf.sprintf "density (%.2f) > size-ascending (%.2f)" density size)
    true (density > size)

let test_all_off_chip () =
  let items = [ item "a" 4 1000 ] in
  let r =
    Partition.Partitioner.partition
      ~strategy:Partition.Partitioner.All_off_chip spec ~capacity:(8 * 1024)
      items
  in
  Alcotest.(check int) "nothing on chip" 0
    r.Partition.Partitioner.on_chip_bytes;
  Alcotest.(check (float 0.001)) "no on-chip accesses" 0.0
    (Partition.Partitioner.on_chip_access_fraction r)

let test_zero_capacity () =
  let items = [ item "a" 4 1; item "b" 8 1 ] in
  let r = Partition.Partitioner.partition spec ~capacity:0 items in
  Alcotest.(check int) "nothing on chip" 0
    r.Partition.Partitioner.on_chip_bytes

let test_split_placement () =
  (* one 10 KB array against 8 KB capacity: with splitting its leading
     lines stay on chip *)
  let items = [ item "big" (10 * 1024) 1000 ] in
  let no_split =
    Partition.Partitioner.partition spec ~capacity:(8 * 1024) items
  in
  Alcotest.(check int) "without splitting, nothing on chip" 0
    no_split.Partition.Partitioner.on_chip_bytes;
  let split =
    Partition.Partitioner.partition ~allow_split:true spec
      ~capacity:(8 * 1024) items
  in
  Alcotest.(check int) "leading 8 KB on chip" (8 * 1024)
    split.Partition.Partitioner.on_chip_bytes;
  Alcotest.(check int) "tail off chip" (2 * 1024)
    split.Partition.Partitioner.off_chip_bytes;
  let f = Partition.Partitioner.on_chip_access_fraction split in
  Alcotest.(check (float 0.01)) "prorated access fraction" 0.8 f

let test_split_respects_capacity () =
  let items = [ item "a" 100 1; item "big" 50_000 1; item "b" 64 1 ] in
  let r =
    Partition.Partitioner.partition ~allow_split:true spec ~capacity:4096
      items
  in
  Alcotest.(check bool) "capacity honoured with splits" true
    (r.Partition.Partitioner.on_chip_bytes <= 4096)

let test_items_of_analysis () =
  let a = Session.pipeline (Session.create (Exp.Example41.parse ())) in
  let items = Partition.Partitioner.items_of_analysis a in
  let names =
    List.map
      (fun (i : Partition.Partitioner.item) ->
        i.Partition.Partitioner.var.Ir.Var_id.name)
      items
  in
  (* the example's final shared set: ptr, sum, tmp *)
  Alcotest.(check (list string)) "shared variables" [ "ptr"; "sum"; "tmp" ]
    names

(* --- qcheck invariants ------------------------------------------------------ *)

let gen_items =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (map2
         (fun bytes accesses -> (1 + abs bytes mod 20_000, abs accesses mod 10_000))
         int int))

let arbitrary_items =
  QCheck.make gen_items ~print:(fun items ->
      String.concat ";"
        (List.map (fun (b, a) -> Printf.sprintf "(%d,%d)" b a) items))

let make_items specs =
  List.mapi (fun i (bytes, accesses) ->
      item (Printf.sprintf "v%d" i) bytes accesses)
    specs

let strategies =
  [ Partition.Partitioner.Size_ascending;
    Partition.Partitioner.Access_density;
    Partition.Partitioner.All_off_chip ]

let qcheck_split_capacity =
  QCheck.Test.make ~count:300
    ~name:"partition: splitting never exceeds capacity"
    (QCheck.pair arbitrary_items (QCheck.make QCheck.Gen.(int_bound 100_000)))
    (fun (specs, capacity) ->
      let items = make_items specs in
      let r =
        Partition.Partitioner.partition ~allow_split:true spec ~capacity
          items
      in
      r.Partition.Partitioner.on_chip_bytes <= capacity)

let qcheck_split_never_worse =
  QCheck.Test.make ~count:300
    ~name:"partition: splitting never reduces on-chip accesses"
    (QCheck.pair arbitrary_items (QCheck.make QCheck.Gen.(int_bound 100_000)))
    (fun (specs, capacity) ->
      let items = make_items specs in
      let without =
        Partition.Partitioner.partition spec ~capacity items
      in
      let with_split =
        Partition.Partitioner.partition ~allow_split:true spec ~capacity
          items
      in
      Partition.Partitioner.on_chip_access_fraction with_split
      +. 1e-9
      >= Partition.Partitioner.on_chip_access_fraction without)


let qcheck_capacity_never_exceeded =
  QCheck.Test.make ~count:300
    ~name:"partition: line-rounded on-chip bytes never exceed capacity"
    (QCheck.pair arbitrary_items (QCheck.make QCheck.Gen.(int_bound 100_000)))
    (fun (specs, capacity) ->
      let items = make_items specs in
      List.for_all
        (fun strategy ->
          let r =
            Partition.Partitioner.partition ~strategy spec ~capacity items
          in
          r.Partition.Partitioner.on_chip_bytes <= capacity)
        strategies)

let qcheck_every_item_placed =
  QCheck.Test.make ~count:300 ~name:"partition: every variable is placed"
    arbitrary_items (fun specs ->
      let items = make_items specs in
      List.for_all
        (fun strategy ->
          let r =
            Partition.Partitioner.partition ~strategy spec ~capacity:4096
              items
          in
          List.length r.Partition.Partitioner.assignments
          = List.length items)
        strategies)

let qcheck_all_on_chip_when_fits =
  QCheck.Test.make ~count:300
    ~name:"partition: everything on chip when the total fits"
    arbitrary_items (fun specs ->
      let items = make_items specs in
      let total =
        List.fold_left
          (fun acc (i : Partition.Partitioner.item) ->
            acc
            + Partition.Memspec.round_to_line spec
                i.Partition.Partitioner.bytes)
          0 items
      in
      let r =
        Partition.Partitioner.partition spec ~capacity:total items
      in
      List.for_all
        (fun (a : Partition.Partitioner.assignment) ->
          a.Partition.Partitioner.placement = Partition.Partitioner.On_chip)
        r.Partition.Partitioner.assignments)

let suite =
  [
    Alcotest.test_case "memspec" `Quick test_memspec;
    Alcotest.test_case "all fits -> on chip" `Quick
      test_all_fits_goes_on_chip;
    Alcotest.test_case "greedy ascending" `Quick test_greedy_ascending;
    Alcotest.test_case "density beats size" `Quick
      test_density_beats_size_for_hot_array;
    Alcotest.test_case "all off chip" `Quick test_all_off_chip;
    Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
    Alcotest.test_case "items from analysis" `Quick test_items_of_analysis;
    QCheck_alcotest.to_alcotest qcheck_capacity_never_exceeded;
    QCheck_alcotest.to_alcotest qcheck_every_item_placed;
    QCheck_alcotest.to_alcotest qcheck_all_on_chip_when_fits;
    Alcotest.test_case "split placement" `Quick test_split_placement;
    Alcotest.test_case "split capacity" `Quick test_split_respects_capacity;
    QCheck_alcotest.to_alcotest qcheck_split_capacity;
    QCheck_alcotest.to_alcotest qcheck_split_never_worse;
  ]

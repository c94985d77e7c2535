(* Partition explorer: Stage 4 in isolation — how the paper's
   ascending-size greedy (Algorithm 3) places a program's shared data as
   the on-chip capacity varies, and how the access-density alternative
   compares.

     dune exec examples/partition_explorer.exe
*)

let spec = Partition.Memspec.scc

let show_placements title items ~capacity ~strategy =
  Printf.printf "%s (capacity %d B, %s)\n" title capacity
    (Partition.Partitioner.strategy_to_string strategy);
  let r = Partition.Partitioner.partition ~strategy spec ~capacity items in
  let rows =
    [ "Variable"; "Bytes"; "Accesses"; "Placement" ]
    :: List.map
         (fun (a : Partition.Partitioner.assignment) ->
           let i = a.Partition.Partitioner.item in
           [ Ir.Var_id.to_string i.Partition.Partitioner.var;
             string_of_int i.Partition.Partitioner.bytes;
             string_of_int i.Partition.Partitioner.accesses;
             Partition.Partitioner.placement_to_string
               a.Partition.Partitioner.placement ])
         r.Partition.Partitioner.assignments
  in
  print_string (Obs.render_table ~rule:true rows);
  Printf.printf "on-chip: %d B used, %.0f%% of accesses served on chip\n\n"
    r.Partition.Partitioner.on_chip_bytes
    (100.0 *. Partition.Partitioner.on_chip_access_fraction r)

let () =
  (* 1. the paper's example: its three shared variables always fit *)
  print_endline "== Shared data of the paper's Example 4.1 ==\n";
  let analysis = Session.pipeline (Session.create (Exp.Example41.parse ())) in
  let items = Partition.Partitioner.items_of_analysis analysis in
  show_placements "Example 4.1" items
    ~capacity:(Partition.Memspec.on_chip_capacity spec ~ncores:3)
    ~strategy:Partition.Partitioner.Size_ascending;

  (* 2. a synthetic program whose shared data exceeds the MPB *)
  print_endline "== 64 synthetic shared variables, capacity sweep ==\n";
  let items = Exp.Experiments.synthetic_items ~count:64 ~seed:42 in
  let summarize ~capacity ~strategy =
    let r = Partition.Partitioner.partition ~strategy spec ~capacity items in
    Printf.sprintf "%.0f%%"
      (100.0 *. Partition.Partitioner.on_chip_access_fraction r)
  in
  let capacities = [ 4096; 16 * 1024; 64 * 1024; 256 * 1024 ] in
  let rows =
    [ "Capacity"; "Algorithm 3 (size asc.)"; "Access density" ]
    :: List.map
         (fun capacity ->
           [ Printf.sprintf "%d KB" (capacity / 1024);
             summarize ~capacity
               ~strategy:Partition.Partitioner.Size_ascending;
             summarize ~capacity
               ~strategy:Partition.Partitioner.Access_density ])
         capacities
  in
  print_string (Obs.render_table ~rule:true rows);
  print_endline
    "\n(fraction of estimated shared accesses served by the on-chip MPB)"

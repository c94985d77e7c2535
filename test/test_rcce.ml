(* The RCCE runtime layer: collective allocation, put/get through the
   MPB, and locks. *)

let test_collective_shmalloc_same_address () =
  let seen = Array.make 4 (-1) in
  let _eng =
    Rcce.run ~ncores:4 (fun t ->
        let a = Rcce.shmalloc t ~bytes:256 in
        let _b = Rcce.shmalloc t ~bytes:64 in
        seen.(Rcce.ue t) <- a;
        Rcce.barrier t)
  in
  Array.iter
    (fun a -> Alcotest.(check int) "same first allocation" seen.(0) a)
    seen;
  Alcotest.(check bool) "shared region" true
    (Scc.Memmap.region_of_addr seen.(0) = Scc.Memmap.Shared_dram)

let test_collective_mpb_striping () =
  let chunks = ref [] in
  let _eng =
    Rcce.run ~ncores:4 (fun t ->
        let cs = Rcce.malloc_mpb t ~bytes:4096 in
        if Rcce.ue t = 0 then chunks := cs;
        Rcce.barrier t)
  in
  Alcotest.(check int) "one chunk per UE" 4 (List.length !chunks);
  List.iteri
    (fun i addr ->
      Alcotest.(check bool) "chunk on its core" true
        (Scc.Memmap.region_of_addr addr = Scc.Memmap.Mpb i))
    !chunks

let test_put_get_cost_asymmetry () =
  (* put/get to a neighbour costs more than to the own slice *)
  let own = ref 0 and remote = ref 0 in
  let _eng =
    Rcce.run ~ncores:8 (fun t ->
        if Rcce.ue t = 0 then begin
          let api = Rcce.api t in
          let t0 = api.Scc.Engine.now_ps () in
          Rcce.put t ~dest_ue:0 ~offset:0 ~bytes:1024;
          let t1 = api.Scc.Engine.now_ps () in
          Rcce.put t ~dest_ue:7 ~offset:0 ~bytes:1024;
          let t2 = api.Scc.Engine.now_ps () in
          own := t1 - t0;
          remote := t2 - t1
        end;
        Rcce.barrier t)
  in
  Alcotest.(check bool)
    (Printf.sprintf "remote put (%d ps) dearer than local (%d ps)" !remote
       !own)
    true (!remote > !own)

let test_rcce_num_ues () =
  let seen = ref 0 in
  let _eng =
    Rcce.run ~ncores:5 (fun t ->
        if Rcce.ue t = 3 then seen := Rcce.num_ues t;
        Rcce.barrier t)
  in
  Alcotest.(check int) "num_ues" 5 !seen

let test_rcce_lock_roundtrip () =
  let order = ref [] in
  let _eng =
    Rcce.run ~ncores:3 (fun t ->
        Rcce.acquire_lock t 0;
        order := Rcce.ue t :: !order;
        Rcce.release_lock t 0;
        Rcce.barrier t)
  in
  Alcotest.(check int) "all three passed the lock" 3 (List.length !order)

let suite =
  [
    Alcotest.test_case "collective shmalloc" `Quick
      test_collective_shmalloc_same_address;
    Alcotest.test_case "collective MPB striping" `Quick
      test_collective_mpb_striping;
    Alcotest.test_case "put/get cost asymmetry" `Quick
      test_put_get_cost_asymmetry;
    Alcotest.test_case "num_ues" `Quick test_rcce_num_ues;
    Alcotest.test_case "lock round trip" `Quick test_rcce_lock_roundtrip;
  ]

(* The RCCE message-passing layer: UE numbering and put/get through the
   MPB.  Send/recv are in test_extensions; collective allocation and the
   locks are the interpreter's builtins, tested in test_interp. *)

let barrier t = (Rcce.api t).Scc.Engine.barrier ()

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
        barrier t)
  in
  Alcotest.(check bool)
    (Printf.sprintf "remote put (%d ps) dearer than local (%d ps)" !remote
       !own)
    true (!remote > !own)

let test_put_to_missing_ue_rejected () =
  match
    Rcce.run ~ncores:2 (fun t ->
        if Rcce.ue t = 0 then Rcce.put t ~dest_ue:2 ~offset:0 ~bytes:32)
  with
  | _ -> Alcotest.fail "put to UE 2 of 2 accepted"
  | exception Invalid_argument _ -> ()

let test_rcce_num_ues () =
  let seen = ref 0 in
  let _eng =
    Rcce.run ~ncores:5 (fun t ->
        if Rcce.ue t = 3 then seen := Rcce.num_ues t;
        barrier t)
  in
  Alcotest.(check int) "num_ues" 5 !seen

let suite =
  [
    Alcotest.test_case "put/get cost asymmetry" `Quick
      test_put_get_cost_asymmetry;
    Alcotest.test_case "put to a missing UE rejected" `Quick
      test_put_to_missing_ue_rejected;
    Alcotest.test_case "num_ues" `Quick test_rcce_num_ues;
  ]

(* RCCE message passing on the simulator, for OCaml programs.

   Units of execution (UEs) tied one-to-one to cores, one-sided put/get
   through the MPB, and RCCE's blocking send/recv built on MPB flags
   (van der Wijngaart et al., "Light-weight communications on Intel's
   single-chip cloud computer processor").  Collective allocation, the
   barrier, the locks and the frequency divider of a translated C program
   are the interpreter's RCCE builtins (lib/cexec/interp.ml); an OCaml
   program reaches the engine's barrier, locks and DVFS through [api]. *)

type t = {
  eng : Scc.Engine.t;
  api : Scc.Engine.api;
  num_ues : int;
  comm_buf : int option array;   (* per-UE MPB message buffer, shared *)
}

let ue t = t.api.Scc.Engine.self

let num_ues t = t.num_ues

let api t = t.api

(* --- one-sided communication -------------------------------------------- *)

(* Address of [offset] in the MPB slice of UE [ue], which runs on core
   [ue]. *)
let mpb_addr t ~ue ~offset =
  if ue < 0 || ue >= t.num_ues then invalid_arg "Rcce: no such UE";
  Scc.Memmap.addr_of_mpb ~core:ue ~offset

(* RCCE_put: move [bytes] from the caller into the MPB slice of the
   target UE. *)
let put t ~dest_ue ~offset ~bytes =
  t.api.Scc.Engine.store (mpb_addr t ~ue:dest_ue ~offset) ~bytes

(* RCCE_get: move [bytes] from the MPB slice of the source UE into the
   caller. *)
let get t ~src_ue ~offset ~bytes =
  t.api.Scc.Engine.load (mpb_addr t ~ue:src_ue ~offset) ~bytes

(* --- two-sided send/recv ------------------------------------------------- *)

(* RCCE's blocking send/recv: the receiver posts a "ready" flag, the
   sender moves the message into the receiver's MPB buffer and raises a
   "sent" flag, and the receiver drains its buffer.  One directed flag
   pair per (source, destination), so matched send/recv pairs alternate
   correctly. *)

let comm_buf_bytes = 1024

let comm_buf t ~ue =
  match t.comm_buf.(ue) with
  | Some addr -> addr
  | None ->
      let addr =
        Scc.Memmap.alloc (Scc.Engine.memmap t.eng) (Scc.Memmap.Mpb ue)
          ~bytes:comm_buf_bytes
      in
      t.comm_buf.(ue) <- Some addr;
      addr

let flag_ready t ~src ~dest = 2 * ((src * num_ues t) + dest)
let flag_sent t ~src ~dest = (2 * ((src * num_ues t) + dest)) + 1

let send t ~dest_ue ~bytes =
  if dest_ue = ue t then invalid_arg "Rcce.send: send to self";
  let api = t.api in
  let buf = comm_buf t ~ue:dest_ue in
  let src = ue t in
  let rec chunk remaining =
    if remaining > 0 then begin
      let n = min remaining comm_buf_bytes in
      api.Scc.Engine.flag_wait ~id:(flag_ready t ~src ~dest:dest_ue);
      api.Scc.Engine.flag_set ~id:(flag_ready t ~src ~dest:dest_ue) false;
      api.Scc.Engine.store buf ~bytes:n;
      api.Scc.Engine.flag_set ~id:(flag_sent t ~src ~dest:dest_ue) true;
      chunk (remaining - n)
    end
  in
  chunk bytes

let recv t ~src_ue ~bytes =
  if src_ue = ue t then invalid_arg "Rcce.recv: receive from self";
  let api = t.api in
  let buf = comm_buf t ~ue:(ue t) in
  let dest = ue t in
  let rec chunk remaining =
    if remaining > 0 then begin
      let n = min remaining comm_buf_bytes in
      api.Scc.Engine.flag_set ~id:(flag_ready t ~src:src_ue ~dest) true;
      api.Scc.Engine.flag_wait ~id:(flag_sent t ~src:src_ue ~dest);
      api.Scc.Engine.flag_set ~id:(flag_sent t ~src:src_ue ~dest) false;
      api.Scc.Engine.load buf ~bytes:n;
      chunk (remaining - n)
    end
  in
  chunk bytes

(* --- running ------------------------------------------------------------- *)

(* Spawn one UE per core and run to completion; [program] is the RCCE_APP
   body. *)
let run ?cfg ~ncores program =
  let eng = Scc.Engine.create ?cfg () in
  let comm_buf = Array.make ncores None in
  for core = 0 to ncores - 1 do
    ignore
      (Scc.Engine.spawn eng ~core (fun api ->
           program { eng; api; num_ues = ncores; comm_buf }))
  done;
  Scc.Engine.run eng;
  eng

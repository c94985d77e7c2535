(* The direct execution route of the synthetic workload engine.

   A spec expands to per-thread access traces (a pure function of the
   spec, drawn from the conformance harness's splitmix64 stream), and a
   trace replays on the simulated SCC as a {!Workloads.Workload.t}: every
   access is timed through the memory hierarchy, writes are commutative
   native adds so the final array sums are interleaving-independent and
   verifiable, and a placement policy decides — per shared array — MPB
   SRAM versus off-chip DRAM.  [Greedy] is the paper's Algorithm 3
   (size-ascending fill); the other policies are the forced alternatives
   the sweep's loss hunter compares it against. *)

open Workloads

type policy = Greedy | All_dram | All_mpb | Density

let policies = [ Greedy; All_dram; All_mpb; Density ]

let policy_to_string = function
  | Greedy -> "greedy"
  | All_dram -> "all-dram"
  | All_mpb -> "all-mpb"
  | Density -> "density"

type array_place = Mpb | Dram

let place_to_string = function Mpb -> "mpb" | Dram -> "dram"

(* ------------------------------------------------------------------ *)
(* Access traces                                                      *)

type target = Hot | Cold | Priv

type op = Read | Write

type access = {
  a_phase : int;
  a_target : target;
  a_op : op;
  a_idx : int;
  a_val : int;  (* amount added by a shared write *)
}

let trace_of_thread (sp : Spec.t) tid =
  let rng = Conform.Rng.create ((sp.Spec.seed lsl 8) + tid) in
  let total = sp.phases * sp.insns in
  let dummy = { a_phase = 0; a_target = Priv; a_op = Read; a_idx = 0; a_val = 0 } in
  let tr = Array.make total dummy in
  let k = ref 0 in
  for phase = 0 to sp.phases - 1 do
    for _ = 1 to sp.insns do
      let shared =
        sp.shared_pct > 0
        && Conform.Rng.int rng 100 < sp.shared_pct
        && (sp.n_shared > 0 || sp.n_cold > 0)
      in
      let target =
        if not shared then Priv
        else if sp.n_shared = 0 then Cold
        else if sp.n_cold > 0 && Conform.Rng.int rng 16 = 0 then Cold
        else Hot
      in
      let op =
        match target with
        | Hot | Cold ->
            if Conform.Rng.int rng 100 < sp.read_pct then Read else Write
        | Priv -> if Conform.Rng.int rng 2 = 0 then Read else Write
      in
      let idx =
        match target with
        | Hot ->
            let gl = Spec.group_len sp in
            ((Spec.group_of_thread sp tid * gl) + Conform.Rng.int rng gl)
            mod sp.n_shared
        | Cold -> Conform.Rng.int rng sp.n_cold
        | Priv -> if sp.n_private > 0 then Conform.Rng.int rng sp.n_private else 0
      in
      let v = Conform.Rng.int rng 1000 in
      tr.(!k) <- { a_phase = phase; a_target = target; a_op = op;
                   a_idx = idx; a_val = v };
      incr k
    done
  done;
  tr

let traces_of_spec sp =
  Array.init sp.Spec.threads (fun tid -> trace_of_thread sp tid)

let count_accesses traces target =
  Array.fold_left
    (fun acc tr ->
      Array.fold_left
        (fun acc e -> if e.a_target = target then acc + 1 else acc)
        acc tr)
    0 traces

let write_sum traces target =
  Array.fold_left
    (fun acc tr ->
      Array.fold_left
        (fun acc e ->
          if e.a_target = target && e.a_op = Write then acc + e.a_val
          else acc)
        acc tr)
    0 traces

(* Idempotent initial contents — the C route re-runs the same formulas
   in every core's [main]. *)
let hot_init i = (i * 7 + 3) mod 101
let cold_init i = (i * 5 + 1) mod 89

(* ------------------------------------------------------------------ *)
(* Placement plans                                                    *)

type plan = { hot_place : array_place option; cold_place : array_place option }

let plan_of_policy (sp : Spec.t) traces policy =
  let hot = sp.Spec.n_shared > 0 and cold = sp.Spec.n_cold > 0 in
  let opt b p = if b then Some p else None in
  match policy with
  | All_dram -> { hot_place = opt hot Dram; cold_place = opt cold Dram }
  | All_mpb -> { hot_place = opt hot Mpb; cold_place = opt cold Mpb }
  | Greedy | Density ->
      let strategy =
        match policy with
        | Greedy -> Partition.Partitioner.Size_ascending
        | _ -> Partition.Partitioner.Access_density
      in
      let items =
        (if hot then
           [ { Partition.Partitioner.var = Ir.Var_id.global "hot";
               bytes = sp.Spec.n_shared * Spec.elt_bytes;
               accesses = count_accesses traces Hot } ]
         else [])
        @
        if cold then
          [ { Partition.Partitioner.var = Ir.Var_id.global "cold";
              bytes = sp.Spec.n_cold * Spec.elt_bytes;
              accesses = count_accesses traces Cold } ]
        else []
      in
      if items = [] then { hot_place = None; cold_place = None }
      else begin
        let capacity =
          Partition.Memspec.on_chip_capacity Partition.Memspec.scc
            ~ncores:sp.Spec.threads
        in
        let r =
          Partition.Partitioner.partition ~strategy Partition.Memspec.scc
            ~capacity items
        in
        (* assignments come back in input order: hot first when present *)
        let place_of (a : Partition.Partitioner.assignment) =
          match a.Partition.Partitioner.placement with
          | Partition.Partitioner.On_chip -> Mpb
          | Partition.Partitioner.Off_chip | Partition.Partitioner.Split _ ->
              Dram
        in
        match (r.Partition.Partitioner.assignments, hot, cold) with
        | [ h; c ], true, true ->
            { hot_place = Some (place_of h); cold_place = Some (place_of c) }
        | [ h ], true, false -> { hot_place = Some (place_of h); cold_place = None }
        | [ c ], false, true -> { hot_place = None; cold_place = Some (place_of c) }
        | _ -> { hot_place = None; cold_place = None }
      end

(* ------------------------------------------------------------------ *)
(* The workload                                                       *)

let make_workload (sp : Spec.t) traces plan =
  let instantiate (ctx : Workload.ctx) =
    let mm = Scc.Engine.memmap ctx.Workload.eng in
    let line = (Scc.Engine.cfg ctx.Workload.eng).Scc.Config.line_bytes in
    let cores = List.init sp.Spec.threads (fun i -> i) in
    let alloc_shared name elts place =
      if elts = 0 then None
      else
        let bytes = elts * Spec.elt_bytes in
        let off_chip () =
          Sharr.create ~name ~elts ~elt_bytes:Spec.elt_bytes
            (Sharr.Contiguous (Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes))
        in
        match place with
        | Dram -> Some (off_chip ())
        | Mpb -> (
            match Scc.Memmap.alloc_mpb_striped mm ~cores ~bytes with
            | chunks ->
                let per = (bytes + sp.Spec.threads - 1) / sp.Spec.threads in
                let chunk_bytes = (per + line - 1) / line * line in
                Some
                  (Sharr.create ~name ~elts ~elt_bytes:Spec.elt_bytes
                     (Sharr.Striped
                        { chunks = Array.of_list chunks; chunk_bytes }))
            | exception Scc.Memmap.Out_of_memory _ ->
                Workload.note ctx
                  "array '%s' (%d bytes) exceeds the on-chip MPB; placed \
                   off-chip"
                  name bytes;
                Some (off_chip ()))
    in
    let hot =
      match plan.hot_place with
      | None -> None
      | Some p -> alloc_shared "hot" sp.Spec.n_shared p
    in
    let cold =
      match plan.cold_place with
      | None -> None
      | Some p -> alloc_shared "cold" sp.Spec.n_cold p
    in
    let priv_base =
      Array.init sp.Spec.threads (fun u ->
          if sp.Spec.n_private = 0 then 0
          else
            Scc.Memmap.alloc mm (Scc.Memmap.Private u)
              ~bytes:(sp.Spec.n_private * Spec.elt_bytes))
    in
    let init arr f =
      match arr with
      | None -> ()
      | Some a ->
          let data = Sharr.data a in
          Array.iteri (fun i _ -> data.(i) <- float_of_int (f i)) data
    in
    init hot hot_init;
    init cold cold_init;
    let sink = ref 0.0 in
    let body (api : Scc.Engine.api) =
      let tid = api.Scc.Engine.self in
      let tr = traces.(tid) in
      let cur_phase = ref 0 in
      Array.iter
        (fun e ->
          if e.a_phase <> !cur_phase then begin
            api.Scc.Engine.barrier ();
            cur_phase := e.a_phase
          end;
          if sp.Spec.compute > 0 then api.Scc.Engine.compute sp.Spec.compute;
          let shared_access arr =
            match arr with
            | None -> ()
            | Some a -> (
                match e.a_op with
                | Read ->
                    Sharr.touch_block api ~write:false a ~off:e.a_idx ~len:1;
                    sink := !sink +. (Sharr.data a).(e.a_idx)
                | Write ->
                    Sharr.touch_block api ~write:true a ~off:e.a_idx ~len:1;
                    let data = Sharr.data a in
                    data.(e.a_idx) <- data.(e.a_idx) +. float_of_int e.a_val)
          in
          match e.a_target with
          | Hot -> shared_access hot
          | Cold -> shared_access cold
          | Priv ->
              if sp.Spec.n_private > 0 then begin
                let addr = priv_base.(tid) + (e.a_idx * Spec.elt_bytes) in
                match e.a_op with
                | Read -> api.Scc.Engine.load addr ~bytes:Spec.elt_bytes
                | Write -> api.Scc.Engine.store addr ~bytes:Spec.elt_bytes
              end)
        tr
    in
    let check arr target init_f elts =
      match arr with
      | None -> true
      | Some a ->
          let actual = Array.fold_left ( +. ) 0.0 (Sharr.data a) in
          let init_sum = ref 0 in
          for i = 0 to elts - 1 do
            init_sum := !init_sum + init_f i
          done;
          actual = float_of_int (!init_sum + write_sum traces target)
    in
    { Workload.body;
      verify =
        (fun () ->
          check hot Hot hot_init sp.Spec.n_shared
          && check cold Cold cold_init sp.Spec.n_cold) }
  in
  { Workload.name = Printf.sprintf "synth-%d" sp.Spec.seed; instantiate }

(* ------------------------------------------------------------------ *)
(* Measurements                                                       *)

type measurement = {
  m_policy : policy;
  m_hot : array_place option;   (* as planned; notes record fallbacks *)
  m_cold : array_place option;
  m_elapsed_ps : int;
  m_shared_dram_loads : int;
  m_mpb_lines : int;
  m_verified : bool;
  m_round_trips : int;
  m_notes : string list;
}

let run_one ?critpath (sp : Spec.t) traces policy =
  let plan = plan_of_policy sp traces policy in
  let w = make_workload sp traces plan in
  let cfg =
    { Scc.Config.default with Scc.Config.core_freq_mhz = sp.Spec.dvfs_mhz }
  in
  let r =
    Workload.run ~cfg ?critpath w
      (Workload.Rcce (Workload.Off_chip, sp.Spec.threads))
  in
  {
    m_policy = policy;
    m_hot = plan.hot_place;
    m_cold = plan.cold_place;
    m_elapsed_ps = r.Workload.elapsed_ps;
    m_shared_dram_loads =
      Scc.Stats.total_shared_dram_loads r.Workload.stats;
    m_mpb_lines = Scc.Stats.total_mpb_lines r.Workload.stats;
    m_verified = r.Workload.verified;
    m_round_trips = r.Workload.round_trips;
    m_notes = r.Workload.notes;
  }

let run_config ?critpath sp =
  let traces = traces_of_spec sp in
  List.map (fun p -> run_one ?critpath sp traces p) policies

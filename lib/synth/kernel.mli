(** The direct execution route: a spec expands to deterministic
    per-thread access traces and replays on the simulated SCC as a
    {!Workloads.Workload.t}, under a per-array placement policy.
    [Greedy] is the paper's Algorithm 3; the others are the forced
    alternatives the sweep's loss hunter compares it against. *)

type policy = Greedy | All_dram | All_mpb | Density

val policies : policy list
(** The fixed evaluation order: greedy, all-dram, all-mpb, density. *)

val policy_to_string : policy -> string

type array_place = Mpb | Dram

val place_to_string : array_place -> string

(** {1 Access traces} *)

type target = Hot | Cold | Priv

type op = Read | Write

type access = {
  a_phase : int;
  a_target : target;
  a_op : op;
  a_idx : int;
  a_val : int;
}

val trace_of_thread : Spec.t -> int -> access array
(** Pure function of (spec, tid): the same spec yields byte-identical
    traces on every run and machine. *)

val traces_of_spec : Spec.t -> access array array

val count_accesses : access array array -> target -> int
val write_sum : access array array -> target -> int

val hot_init : int -> int
val cold_init : int -> int
(** Idempotent initial contents of the shared arrays (the C route
    re-runs the same formulas in every core's [main]). *)

(** {1 Placement plans} *)

type plan = {
  hot_place : array_place option;
  cold_place : array_place option;
}

val plan_of_policy : Spec.t -> access array array -> policy -> plan
(** [Greedy]/[Density] call Stage 4's {!Partition.Partitioner.partition}
    with the traces' exact access counts and the MPB capacity of the
    spec's core count. *)

(** {1 Running} *)

val make_workload :
  Spec.t -> access array array -> plan -> Workloads.Workload.t

type measurement = {
  m_policy : policy;
  m_hot : array_place option;  (** as planned; notes record fallbacks *)
  m_cold : array_place option;
  m_elapsed_ps : int;
  m_shared_dram_loads : int;
  m_mpb_lines : int;
  m_verified : bool;
  m_round_trips : int;  (** {!Scc.Engine.round_trips} of the run *)
  m_notes : string list;
}

val run_one :
  ?critpath:Scc.Critpath.t -> Spec.t -> access array array -> policy ->
  measurement
(** One simulated run at the spec's DVFS point, [threads] RCCE cores.
    With [critpath] the engine records the causal accounting, so the
    PR 9 identity [sum == wall * contexts] is checkable afterwards. *)

val run_config : ?critpath:Scc.Critpath.t -> Spec.t -> measurement list
(** All four policies over one shared trace set, in {!policies} order. *)

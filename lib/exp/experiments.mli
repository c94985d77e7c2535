(** The experiment harness: regenerates every table and figure of the
    paper's evaluation, plus the ablations DESIGN.md calls out. *)

type scale = Quick | Full

val scale_to_string : scale -> string

val suite : scale -> Workloads.Workload.t list
(** The six benchmarks at the given scale. *)

(** {1 Tables} *)

val table_4_1 : unit -> string
val table_4_2 : unit -> string
val table_6_1 : unit -> string

val translation_example : unit -> string
(** Example Code 4.1 through the full translator (the paper's Example
    Code 4.2), with pass notes. *)

(** {1 Figures} *)

type fig_6_1_row = {
  name : string;
  baseline_ms : float;
  rcce_ms : float;
  speedup : float;
  verified : bool;
  round_trips : int;
      (** {!Scc.Engine.round_trips} of the two runs together *)
}

val fig_6_1_data :
  ?scale:scale -> ?units:int -> unit -> fig_6_1_row list

val fig_6_1 : ?scale:scale -> ?units:int -> unit -> string

type fig_6_2_row = {
  name : string;
  off_chip_ms : float;
  mpb_ms : float;
  improvement : float;
  verified : bool;
  notes : string list;
}

val fig_6_2_data :
  ?scale:scale -> ?units:int -> unit -> fig_6_2_row list

val fig_6_2 : ?scale:scale -> ?units:int -> unit -> string

type fig_6_3_row = {
  cores : int;
  rcce_ms : float;
  speedup : float;
  energy_j : float;
}

val fig_6_3_core_counts : int list

val fig_6_3_data :
  ?scale:scale -> ?baseline_threads:int -> unit -> fig_6_3_row list

val fig_6_3 : ?scale:scale -> ?baseline_threads:int -> unit -> string

(** {1 Ablations} *)

val synthetic_items :
  count:int -> seed:int -> Partition.Partitioner.item list
(** Deterministic heavy-tailed variable population for the partitioning
    ablation. *)

val ablation_partition : unit -> string

type interp_row = {
  label : string;
  elapsed_ms : float;
  output : string;
}

val interp_end_to_end :
  ?scale:scale -> unit -> interp_row list * float
(** The Pi Pthread source interpreted directly vs its translated RCCE
    form; returns the two rows and the speedup. *)

val interp_experiment : ?scale:scale -> unit -> string

val dvfs_points : int list

val dvfs_experiment : ?scale:scale -> unit -> string
(** The Pi benchmark across the SCC's DVFS envelope (section 5.1). *)

val sync_sensitivity : ?scale:scale -> ?units:int -> unit -> string
(** Compute-bound (Pi) vs lock-bound (histogram) conversion speedups. *)

val model_sensitivity : ?scale:scale -> unit -> string
(** Blocking vs posted uncached shared stores on the memory-bound
    benchmarks. *)

val many_to_one_scaling : ?scale:scale -> unit -> string
(** Section 7.2: a program with more threads than cores, translated with
    the many-to-one task mapping and interpreted at several core
    counts. *)

type opt_row = {
  opt_label : string;
  opt_ncores : int;
  opt_naive_ms : float;
  opt_o_ms : float;
  opt_naive_loads : int;
  opt_o_loads : int;
  opt_speedup : float;
}

val opt_end_to_end : ?scale:scale -> unit -> opt_row list
(** Each shared-data-heavy benchmark translated twice (plain pipeline
    vs [-O]) and interpreted on the simulated chip; raises
    [Invalid_argument] if the optimizer changes a program's output. *)

val opt_experiment : ?scale:scale -> unit -> string

(** {1 Characterization sweep}

    Thousands of synthetic configs (lib/synth) through the fixed-order
    domain pool: speedup surfaces over threads x sharing-degree x
    placement x DVFS, plus the greedy-placement loss hunter. *)

type sweep_result = {
  sweep_jsonl : string;
      (** one JSONL line per (config, policy), trailing newline; row
          order is the canonical grid order *)
  sweep_summary : string;
      (** speedup surfaces, best-policy table, losses line *)
  sweep_configs : int;
  sweep_losses : Synth.Sweep.loss list;
}

val run_sweep :
  ?scale:scale -> ?jobs:int -> ?limit:int -> unit -> sweep_result
(** [Quick] runs {!Synth.Spec.grid} [Quick] (the CI grid, seconds);
    [Full] is the characterization grid EXPERIMENTS.md reports.  [limit]
    keeps only the first [n] configs of the grid (goldens).  Per-config
    work is an independent engine run, gathered fixed-order: the JSONL
    and summary are byte-identical for any [jobs]. *)

val losses_report : Synth.Sweep.loss list -> string
(** The [--find-losses] report; explicit wording when none were found. *)

val sections : (string * (scale -> string)) list
(** Every named section, in presentation order — the dispatch table
    behind [bin/experiments]. *)

val section_names : string list

val run_all : ?scale:scale -> ?jobs:int -> unit -> string
(** Every section, concatenated — what [bin/experiments] prints.  With
    [jobs > 1] the sections run across an OCaml 5 domain pool
    ({!Pool.map_fixed}); the gather is fixed-order, so the output is
    byte-identical for any [jobs]. *)

val run_section :
  ?scale:scale -> ?jobs:int -> string -> (string, string) result
(** Dispatch one section by name ("all" for {!run_all}).  [Error]
    carries the unknown-section message; the CLI maps it to exit
    status 2. *)

(* The categories a local-clock advance is charged to (see
   category.mli): 0..5 are busy, seen by every recorder; 6..8 only by
   the critical-path recorder, so that every picosecond lands
   somewhere. *)

type t = int

let compute = 0
let mem_private = 1
let mem_shared = 2
let mem_mpb = 3
let barrier_wait = 4
let lock_wait = 5
let sched_wait = 6
let sync = 7
let idle = 8
let count = 9
let n_busy = 6

let bad what c = invalid_arg (Printf.sprintf "Category.%s: %d" what c)

let name = function
  | 0 -> "compute"
  | 1 -> "mem-private"
  | 2 -> "mem-shared"
  | 3 -> "mem-mpb"
  | 4 -> "barrier-wait"
  | 5 -> "lock-wait"
  | 6 -> "sched-wait"
  | 7 -> "sync"
  | 8 -> "idle"
  | c -> bad "name" c

let slice_name = function
  | 0 -> "compute"
  | 1 -> "private-mem"
  | 2 -> "shared-dram"
  | 3 -> "mpb"
  | 4 -> "barrier"
  | 5 -> "lock"
  | c -> bad "slice_name" c

let metric_name c =
  "sim_" ^ String.map (function '-' -> '_' | ch -> ch) (name c) ^ "_ps_total"

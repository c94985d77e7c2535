(* Per-operation cycle costs on a P54C-class in-order core, used by the
   workloads to convert native computation into simulated core cycles.
   Values follow the published Pentium instruction timings (integer divide
   ~41 cycles, FDIV 39, FMUL 3, FADD 3, simple ALU 1). *)

let int_alu = 1
let int_mod = 41
let fp_add = 3
let fp_mul = 3
let fp_div = 39
let branch = 2
let loop_overhead = 3   (* per iteration: index update + compare + branch *)

(* Cost of one Pi-approximation step: x = (i+0.5)*step (1 add, 1 mul);
   4.0/(1 + x*x) (1 mul, 1 add, 1 div); sum += (1 add). *)
let pi_step = fp_add + fp_mul + fp_mul + fp_add + fp_div + fp_add + loop_overhead

(* Cost of one trial division in Count Primes: i mod j, compare, branch. *)
let primes_trial = int_mod + branch

(* Cost of testing one candidate in 3-5-Sum: two mods, or, conditional
   add. *)
let sum35_test = int_mod + int_mod + branch + int_alu + loop_overhead

(* Stream kernel per-element compute (beyond the memory traffic). *)
let stream_copy_elt = loop_overhead
let stream_scale_elt = fp_mul + loop_overhead
let stream_add_elt = fp_add + loop_overhead
let stream_triad_elt = fp_add + fp_mul + loop_overhead

(* Dot product per element: multiply-accumulate. *)
let dot_elt = fp_mul + fp_add + loop_overhead

(* LU inner update per element: a[i][j] -= l * a[k][j]. *)
let lu_update_elt = fp_mul + fp_add + loop_overhead

(* The simulator substrate: cache model, address map, mesh, power model,
   and the discrete-event engine (determinism, barriers, locks, dynamic
   spawn/join, deadlock detection, contention behaviour). *)

(* --- cache -------------------------------------------------------------- *)

let test_cache_basics () =
  let c = Scc.Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:2 in
  let r1 = Scc.Cache.access c ~write:false 0 in
  Alcotest.(check bool) "cold miss" false r1.Scc.Cache.hit;
  let r2 = Scc.Cache.access c ~write:false 0 in
  Alcotest.(check bool) "warm hit" true r2.Scc.Cache.hit;
  let r3 = Scc.Cache.access c ~write:false 16 in
  Alcotest.(check bool) "same line hits" true r3.Scc.Cache.hit;
  let r4 = Scc.Cache.access c ~write:false 32 in
  Alcotest.(check bool) "next line misses" false r4.Scc.Cache.hit

let test_cache_lru_eviction () =
  (* 2-way, 16 sets of 32B lines: three lines mapping to one set evict
     the least recently used *)
  let c = Scc.Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:2 in
  let set_stride = 16 * 32 in
  ignore (Scc.Cache.access c ~write:false 0);
  ignore (Scc.Cache.access c ~write:false set_stride);
  (* touch line 0 so line set_stride is LRU *)
  ignore (Scc.Cache.access c ~write:false 0);
  ignore (Scc.Cache.access c ~write:false (2 * set_stride));
  let r0 = Scc.Cache.access c ~write:false 0 in
  Alcotest.(check bool) "MRU line survived" true r0.Scc.Cache.hit;
  let r1 = Scc.Cache.access c ~write:false set_stride in
  Alcotest.(check bool) "LRU line evicted" false r1.Scc.Cache.hit

let test_cache_dirty_writeback () =
  let c = Scc.Cache.create ~size_bytes:64 ~line_bytes:32 ~assoc:1 in
  ignore (Scc.Cache.access c ~write:true 0);
  (* conflicting line in the same (single) set *)
  let r = Scc.Cache.access c ~write:false 64 in
  Alcotest.(check bool) "dirty victim reported" true r.Scc.Cache.evicted_dirty

let test_cache_flush_and_rates () =
  let c = Scc.Cache.create ~size_bytes:256 ~line_bytes:32 ~assoc:2 in
  ignore (Scc.Cache.access c ~write:false 0);
  ignore (Scc.Cache.access c ~write:false 0);
  Alcotest.(check (float 0.01)) "hit rate 1/2" 0.5 (Scc.Cache.hit_rate c);
  Scc.Cache.flush c;
  let r = Scc.Cache.access c ~write:false 0 in
  Alcotest.(check bool) "flushed" false r.Scc.Cache.hit

let test_cache_bad_geometry () =
  List.iter
    (fun (what, size_bytes, line_bytes, assoc) ->
      match Scc.Cache.create ~size_bytes ~line_bytes ~assoc with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("lines not divisible by ways", 1024, 32, 5);
      ("less than one line", 16, 32, 1);
      ("partial last line", 100, 32, 1);
      ("line size not a power of two", 768, 48, 1);
      ("set count not a power of two", 384, 32, 4);
    ]

(* The record-per-line LRU cache that the flat per-field layout
   replaced, kept as the reference model for the differential test. *)
module Ref_cache = struct
  type line = {
    mutable tag : int;
    mutable dirty : bool;
    mutable last_use : int;
  }

  type t = {
    sets : line array array;
    set_count : int;
    line_bytes : int;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~size_bytes ~line_bytes ~assoc =
    let set_count = size_bytes / line_bytes / assoc in
    let line _ = { tag = -1; dirty = false; last_use = 0 } in
    {
      sets = Array.init set_count (fun _ -> Array.init assoc line);
      set_count;
      line_bytes;
      tick = 0;
      hits = 0;
      misses = 0;
    }

  let access_code t ~write addr =
    t.tick <- t.tick + 1;
    let la = addr / t.line_bytes in
    let set = t.sets.(la mod t.set_count) and tag = la / t.set_count in
    let found = ref (-1) in
    Array.iteri (fun w l -> if l.tag = tag then found := w) set;
    if !found >= 0 then begin
      let l = set.(!found) in
      l.last_use <- t.tick;
      if write then l.dirty <- true;
      t.hits <- t.hits + 1;
      Scc.Cache.hit
    end
    else begin
      t.misses <- t.misses + 1;
      let victim = ref 0 in
      Array.iteri
        (fun w l -> if l.last_use < set.(!victim).last_use then victim := w)
        set;
      let v = set.(!victim) in
      let evicted_dirty = v.tag >= 0 && v.dirty in
      v.tag <- tag;
      v.dirty <- write;
      v.last_use <- t.tick;
      if evicted_dirty then Scc.Cache.miss_evict_dirty else Scc.Cache.miss
    end

  let flush t =
    Array.iter
      (Array.iter (fun l ->
           l.tag <- -1;
           l.dirty <- false;
           l.last_use <- 0))
      t.sets
end

(* (size_bytes, line_bytes, assoc): associativity 1/2/4/8 on a small
   cache, then the SCC's L1 and L2 *)
let diff_geometries =
  [ (1024, 32, 1); (1024, 32, 2); (1024, 32, 4); (1024, 32, 8);
    (8 * 1024, 32, 2); (256 * 1024, 32, 4) ]

(* A stream op is (write, set, tag, offset), mapped onto each geometry so
   most accesses crowd a few sets and evict; [set = -1] asks for a
   uniformly random line anywhere in 4x the cache instead, and -2 and -3
   for the last and the middle set, so that a stream grows the covered
   range of sets from the top and across the flush. *)
let qcheck_cache_matches_reference =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 400)
           (quad bool (int_range (-3) 3) (int_bound 17) (int_bound 1_000_000)))
        (int_bound 400))
  in
  QCheck.Test.make ~count:200
    ~name:"flat cache matches the record-based reference"
    (QCheck.make gen)
    (fun (ops, flush_at) ->
      List.for_all
        (fun (size_bytes, line_bytes, assoc) ->
          let c = Scc.Cache.create ~size_bytes ~line_bytes ~assoc in
          let r = Ref_cache.create ~size_bytes ~line_bytes ~assoc in
          let sets = size_bytes / line_bytes / assoc in
          let addr set tag off =
            if set = -1 then off mod (4 * size_bytes)
            else
              let set =
                if set = -2 then sets - 1 else if set = -3 then sets / 2
                else set
              in
              (((tag mod ((2 * assoc) + 2)) * sets) + set) * line_bytes
              + (off mod line_bytes)
          in
          let same = ref true in
          List.iteri
            (fun i (write, set, tag, off) ->
              if i = flush_at then begin
                Scc.Cache.flush c;
                Ref_cache.flush r
              end;
              let a = addr set tag off in
              if Scc.Cache.access_code c ~write a
                 <> Ref_cache.access_code r ~write a
              then same := false)
            ops;
          !same
          && Scc.Cache.hits c = r.Ref_cache.hits
          && Scc.Cache.misses c = r.Ref_cache.misses)
        diff_geometries)

(* --- memmap -------------------------------------------------------------- *)

let test_memmap_regions_roundtrip () =
  let mm = Scc.Memmap.create Scc.Config.default in
  let p = Scc.Memmap.alloc mm (Scc.Memmap.Private 7) ~bytes:100 in
  let s = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:100 in
  let m = Scc.Memmap.alloc mm (Scc.Memmap.Mpb 3) ~bytes:100 in
  Alcotest.(check bool) "private region" true
    (Scc.Memmap.region_of_addr p = Scc.Memmap.Private 7);
  Alcotest.(check bool) "shared region" true
    (Scc.Memmap.region_of_addr s = Scc.Memmap.Shared_dram);
  Alcotest.(check bool) "mpb region" true
    (Scc.Memmap.region_of_addr m = Scc.Memmap.Mpb 3)

let test_memmap_line_alignment () =
  let mm = Scc.Memmap.create Scc.Config.default in
  let a = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:1 in
  let b = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:1 in
  Alcotest.(check int) "line-aligned bump" 32
    (Scc.Memmap.offset_of_addr b - Scc.Memmap.offset_of_addr a)

let test_mpb_capacity_enforced () =
  let mm = Scc.Memmap.create Scc.Config.default in
  ignore (Scc.Memmap.alloc mm (Scc.Memmap.Mpb 0) ~bytes:(8 * 1024));
  match Scc.Memmap.alloc mm (Scc.Memmap.Mpb 0) ~bytes:32 with
  | _ -> Alcotest.fail "MPB slice overflow accepted"
  | exception Scc.Memmap.Out_of_memory (Scc.Memmap.Mpb 0) -> ()
  | exception Scc.Memmap.Out_of_memory _ -> Alcotest.fail "wrong region"

let test_mpb_striping () =
  let mm = Scc.Memmap.create Scc.Config.default in
  let chunks =
    Scc.Memmap.alloc_mpb_striped mm ~cores:[ 0; 1; 2; 3 ] ~bytes:4096
  in
  Alcotest.(check int) "four chunks" 4 (List.length chunks);
  List.iteri
    (fun i addr ->
      Alcotest.(check bool)
        (Printf.sprintf "chunk %d on core %d" i i)
        true
        (Scc.Memmap.region_of_addr addr = Scc.Memmap.Mpb i))
    chunks

(* The decoder's edges: a region kind the layout lacks, an owner one past
   the last core, and a shared-DRAM address whose owner byte is not 0
   (shared DRAM is one region, so it would alias it) name no memory of
   the chip; the last core's own regions and shared DRAM do. *)
let test_memmap_decoder_boundaries () =
  let cfg = Scc.Config.default in
  let n = Scc.Config.n_cores cfg in
  let last = n - 1 in
  let mm = Scc.Memmap.create cfg in
  let on_chip =
    List.map
      (fun (what, region) -> (what, Scc.Memmap.alloc mm region ~bytes:64))
      [ ("last core's private", Scc.Memmap.Private last);
        ("last core's MPB", Scc.Memmap.Mpb last);
        ("shared DRAM", Scc.Memmap.Shared_dram) ]
  in
  List.iter
    (fun (what, addr) ->
      Alcotest.(check bool) (what ^ " on chip") true
        (Scc.Memmap.on_chip mm addr);
      Alcotest.(check int) (what ^ " extent")
        (Scc.Memmap.offset_of_addr addr + 64)
        (Scc.Memmap.extent mm addr))
    on_chip;
  let addr ~kind ~owner = (kind lsl 40) lor (owner lsl 32) lor 64 in
  List.iter
    (fun (what, addr) ->
      Alcotest.(check bool) (what ^ " off chip") false
        (Scc.Memmap.on_chip mm addr);
      Alcotest.(check int) (what ^ " extent") 0 (Scc.Memmap.extent mm addr))
    [ ("kind 3", addr ~kind:3 ~owner:0);
      ("private, owner = core count", addr ~kind:0 ~owner:n);
      ("MPB, owner = core count", addr ~kind:2 ~owner:n);
      ("shared DRAM, owner 1", addr ~kind:1 ~owner:1) ]

(* --- mesh ----------------------------------------------------------------- *)

let test_mesh_hops () =
  let mesh = Scc.Mesh.create Scc.Config.default in
  Alcotest.(check int) "same tile" 0
    (Scc.Mesh.hops mesh ~from_tile:0 ~to_tile:0);
  Alcotest.(check int) "adjacent" 1
    (Scc.Mesh.hops mesh ~from_tile:0 ~to_tile:1);
  (* opposite corners of the 6x4 mesh: 5 + 3 *)
  Alcotest.(check int) "diagonal" 8
    (Scc.Mesh.hops mesh ~from_tile:0 ~to_tile:23)

let test_mesh_core_mapping () =
  let mesh = Scc.Mesh.create Scc.Config.default in
  Alcotest.(check int) "cores 0,1 on tile 0" 0 (Scc.Mesh.tile_of_core mesh 1);
  Alcotest.(check int) "cores 2,3 on tile 1" 1 (Scc.Mesh.tile_of_core mesh 2)

let test_mesh_mc_quadrants () =
  let mesh = Scc.Mesh.create Scc.Config.default in
  Alcotest.(check int) "4 controllers" 4 (Scc.Mesh.n_mcs mesh);
  (* corner cores map to their own corner's controller *)
  Alcotest.(check int) "core 0 -> MC 0" 0 (Scc.Mesh.mc_of_core mesh 0);
  let n = Scc.Config.n_cores Scc.Config.default in
  Alcotest.(check int) "last core -> MC 3" 3
    (Scc.Mesh.mc_of_core mesh (n - 1));
  (* every core maps to some controller at most 4 hops away *)
  for core = 0 to n - 1 do
    let mc = Scc.Mesh.mc_of_core mesh core in
    let hops = Scc.Mesh.hops_core_to_mc mesh ~core ~mc in
    if hops > 4 then
      Alcotest.failf "core %d is %d hops from its controller" core hops
  done

(* --- power ------------------------------------------------------------------ *)

let test_power_endpoints () =
  Alcotest.(check (float 0.5)) "low endpoint" 25.0
    (Scc.Power.chip_watts ~volts:0.7 ~freq_mhz:125 ());
  Alcotest.(check (float 0.5)) "high endpoint" 125.0
    (Scc.Power.chip_watts ~volts:1.14 ~freq_mhz:1000 ())

let test_power_monotone_energy () =
  let e8 =
    Scc.Power.energy_joules Scc.Config.default ~active_cores:8
      ~elapsed_ps:1_000_000_000
  in
  let e48 =
    Scc.Power.energy_joules Scc.Config.default ~active_cores:48
      ~elapsed_ps:1_000_000_000
  in
  Alcotest.(check bool) "more active cores, more energy" true (e48 > e8);
  Alcotest.(check bool) "positive" true (e8 > 0.0)

(* --- engine ------------------------------------------------------------------ *)

let test_engine_determinism () =
  let run_once () =
    let eng = Scc.Engine.create () in
    let mm = Scc.Engine.memmap eng in
    let sh = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:4096 in
    for core = 0 to 7 do
      ignore
        (Scc.Engine.spawn eng ~core (fun api ->
             api.Scc.Engine.compute (100 * (api.Scc.Engine.self + 1));
             api.Scc.Engine.store (sh + (api.Scc.Engine.self * 512)) ~bytes:512;
             api.Scc.Engine.barrier ();
             api.Scc.Engine.load sh ~bytes:512))
    done;
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  Alcotest.(check int) "identical elapsed time" (run_once ()) (run_once ())

let test_engine_compute_timing () =
  let eng = Scc.Engine.create () in
  ignore
    (Scc.Engine.spawn eng ~core:0 (fun api -> api.Scc.Engine.compute 800));
  Scc.Engine.run eng;
  (* 800 cycles at 800 MHz = 1 us *)
  Alcotest.(check int) "800 cycles = 1us" 1_000_000 (Scc.Engine.elapsed_ps eng)

let test_engine_barrier_sync () =
  let eng = Scc.Engine.create () in
  let after = Array.make 2 0 in
  for core = 0 to 1 do
    ignore
      (Scc.Engine.spawn eng ~core (fun api ->
           api.Scc.Engine.compute (if api.Scc.Engine.self = 0 then 100 else 10_000);
           api.Scc.Engine.barrier ();
           after.(api.Scc.Engine.self) <- api.Scc.Engine.now_ps ()))
  done;
  Scc.Engine.run eng;
  Alcotest.(check int) "both leave the barrier together" after.(0) after.(1);
  Alcotest.(check bool) "after the slow one arrived" true
    (after.(0) >= Scc.Config.core_cycles_ps Scc.Config.default 10_000)

let test_engine_lock_mutual_exclusion () =
  (* four contexts on four cores, then three time-sharing core 0 whose
     critical sections outlast a time slice *)
  List.iter
    (fun (cores, cycles) ->
      let eng = Scc.Engine.create () in
      let in_section = ref 0 in
      let max_seen = ref 0 in
      List.iter
        (fun core ->
          ignore
            (Scc.Engine.spawn eng ~core (fun api ->
                 for _ = 1 to 5 do
                   api.Scc.Engine.acquire 0;
                   incr in_section;
                   max_seen := max !max_seen !in_section;
                   api.Scc.Engine.compute cycles;
                   decr in_section;
                   api.Scc.Engine.release 0
                 done)))
        cores;
      Scc.Engine.run eng;
      Alcotest.(check int) "never two holders" 1 !max_seen;
      Alcotest.(check bool) "contexts waited for the lock" true
        (Array.exists
           (fun c -> c.Scc.Stats.lock_wait_ps > 0)
           (Scc.Engine.stats eng).Scc.Stats.ctxs))
    [ ([ 0; 1; 2; 3 ], 500); ([ 0; 0; 0 ], 15_000) ]

let test_engine_release_without_hold () =
  let eng = Scc.Engine.create () in
  ignore (Scc.Engine.spawn eng ~core:0 (fun api -> api.Scc.Engine.release 0));
  match Scc.Engine.run eng with
  | _ -> Alcotest.fail "release without acquire should fail"
  | exception Invalid_argument _ -> ()

let test_engine_deadlock_detected () =
  let eng = Scc.Engine.create () in
  (* two members, but only one reaches the barrier *)
  ignore (Scc.Engine.spawn eng ~core:0 (fun api -> api.Scc.Engine.barrier ()));
  ignore
    (Scc.Engine.spawn eng ~core:1 (fun api ->
         api.Scc.Engine.acquire 5;
         api.Scc.Engine.acquire 5 (* self-deadlock *)));
  match Scc.Engine.run eng with
  | _ -> Alcotest.fail "deadlock should be detected"
  | exception Scc.Engine.Deadlock _ -> ()

let test_engine_spawn_join () =
  let eng = Scc.Engine.create () in
  let child_done = ref false in
  let joined_at = ref 0 in
  ignore
    (Scc.Engine.spawn eng ~core:0 (fun api ->
         let child =
           api.Scc.Engine.spawn_child (fun capi ->
               capi.Scc.Engine.compute 50_000;
               child_done := true)
         in
         api.Scc.Engine.join child;
         joined_at := api.Scc.Engine.now_ps ();
         Alcotest.(check bool) "child ran before join returned" true
           !child_done));
  Scc.Engine.run eng;
  Alcotest.(check bool) "join waited for the child's compute" true
    (!joined_at >= Scc.Config.core_cycles_ps Scc.Config.default 50_000)

let test_engine_shared_core_serializes () =
  let elapsed nthreads =
    let eng = Scc.Engine.create () in
    for _ = 1 to nthreads do
      ignore
        (Scc.Engine.spawn eng ~core:0 (fun api ->
             api.Scc.Engine.compute 100_000))
    done;
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  let one = elapsed 1 in
  let four = elapsed 4 in
  Alcotest.(check bool) "4 threads at least 4x one thread" true
    (four >= 4 * one);
  Alcotest.(check bool) "but switching overhead is bounded (< 5x)" true
    (four < 5 * one)

let test_engine_mc_contention_monotone () =
  (* same total shared traffic is never faster with fewer cores *)
  let elapsed ncores =
    let eng = Scc.Engine.create () in
    let mm = Scc.Engine.memmap eng in
    let sh = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:(1 lsl 18) in
    let total = 1 lsl 16 in
    let per = total / ncores in
    for core = 0 to ncores - 1 do
      ignore
        (Scc.Engine.spawn eng ~core (fun api ->
             api.Scc.Engine.load (sh + (api.Scc.Engine.self * per)) ~bytes:per))
    done;
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  let e1 = elapsed 1 and e8 = elapsed 8 and e32 = elapsed 32 in
  Alcotest.(check bool) "8 cores faster than 1" true (e8 < e1);
  Alcotest.(check bool) "32 cores no slower than 8" true (e32 <= e8);
  (* physical floor: the controllers must serve every line *)
  let cfg = Scc.Config.default in
  let lines = (1 lsl 16) / cfg.Scc.Config.line_bytes in
  let service_floor =
    lines / cfg.Scc.Config.n_mcs
    * Scc.Config.dram_cycles_ps cfg cfg.Scc.Config.mc_service_cycles
  in
  Alcotest.(check bool) "bounded below by controller service" true
    (e32 >= service_floor)

let test_engine_mpb_faster_than_shared_dram () =
  let run region_of =
    let eng = Scc.Engine.create () in
    let mm = Scc.Engine.memmap eng in
    let addr = Scc.Memmap.alloc mm (region_of ()) ~bytes:4096 in
    ignore
      (Scc.Engine.spawn eng ~core:0 (fun api ->
           api.Scc.Engine.load addr ~bytes:4096));
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  let mpb = run (fun () -> Scc.Memmap.Mpb 0) in
  let dram = run (fun () -> Scc.Memmap.Shared_dram) in
  Alcotest.(check bool)
    (Printf.sprintf "MPB (%d ps) beats uncached DRAM (%d ps)" mpb dram)
    true
    (mpb * 3 < dram)

let test_engine_cached_private_beats_shared () =
  let run region =
    let eng = Scc.Engine.create () in
    let mm = Scc.Engine.memmap eng in
    let addr = Scc.Memmap.alloc mm region ~bytes:4096 in
    ignore
      (Scc.Engine.spawn eng ~core:0 (fun api ->
           (* warm pass then measured pass *)
           api.Scc.Engine.load addr ~bytes:4096;
           let t0 = api.Scc.Engine.now_ps () in
           api.Scc.Engine.load addr ~bytes:4096;
           let t1 = api.Scc.Engine.now_ps () in
           ignore (t1 - t0)));
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  let priv = run (Scc.Memmap.Private 0) in
  let shared = run Scc.Memmap.Shared_dram in
  Alcotest.(check bool) "cacheable private wins overall" true (priv < shared)

let test_posted_writes_cheaper () =
  let run cfg =
    let eng = Scc.Engine.create ~cfg () in
    let mm = Scc.Engine.memmap eng in
    let sh = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:8192 in
    ignore
      (Scc.Engine.spawn eng ~core:0 (fun api ->
           api.Scc.Engine.store sh ~bytes:8192));
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  let blocking = run Scc.Config.default in
  let posted =
    run { Scc.Config.default with Scc.Config.posted_shared_writes = true }
  in
  Alcotest.(check bool)
    (Printf.sprintf "posted stores (%d ps) beat blocking (%d ps)" posted
       blocking)
    true
    (posted * 2 < blocking);
  (* reads are unaffected *)
  let read_with cfg =
    let eng = Scc.Engine.create ~cfg () in
    let mm = Scc.Engine.memmap eng in
    let sh = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:8192 in
    ignore
      (Scc.Engine.spawn eng ~core:0 (fun api ->
           api.Scc.Engine.load sh ~bytes:8192));
    Scc.Engine.run eng;
    Scc.Engine.elapsed_ps eng
  in
  Alcotest.(check int) "loads unchanged" (read_with Scc.Config.default)
    (read_with
       { Scc.Config.default with Scc.Config.posted_shared_writes = true })

let test_spawn_after_run_rejected () =
  let eng = Scc.Engine.create () in
  ignore (Scc.Engine.spawn eng ~core:0 (fun _ -> ()));
  Scc.Engine.run eng;
  match Scc.Engine.spawn eng ~core:0 (fun _ -> ()) with
  | _ -> Alcotest.fail "spawn after run accepted"
  | exception Invalid_argument _ -> ()

(* One context on each of the chip's 48 cores, so every core's caches,
   home controller and mesh distances are used: context i misses in its
   private L2, reads one shared-DRAM line, writes one MPB line owned by
   core 47 - i and takes and releases lock 47 - i.  Every context's
   finish time and counters are pinned by a golden, which a strict and a
   run-ahead engine must both reproduce. *)
let engine_48_report ~strict =
  let eng = Scc.Engine.create ~strict () in
  let mm = Scc.Engine.memmap eng in
  let n = Scc.Config.n_cores Scc.Config.default in
  let line = Scc.Config.default.Scc.Config.line_bytes in
  let shared = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:(n * line) in
  let priv =
    Array.init n (fun core ->
        Scc.Memmap.alloc mm (Scc.Memmap.Private core) ~bytes:line)
  in
  let mpb =
    Array.init n (fun core ->
        Scc.Memmap.alloc mm (Scc.Memmap.Mpb core) ~bytes:line)
  in
  for core = 0 to n - 1 do
    ignore
      (Scc.Engine.spawn eng ~core (fun api ->
           let peer = n - 1 - api.Scc.Engine.core in
           api.Scc.Engine.load priv.(api.Scc.Engine.core) ~bytes:4;
           api.Scc.Engine.load (shared + (api.Scc.Engine.core * line)) ~bytes:4;
           api.Scc.Engine.store mpb.(peer) ~bytes:4;
           api.Scc.Engine.acquire peer;
           api.Scc.Engine.compute 100;
           api.Scc.Engine.release peer))
  done;
  Scc.Engine.run eng;
  let b = Buffer.create 8192 in
  Array.iteri
    (fun i (c : Scc.Stats.ctx_stats) ->
      Printf.bprintf b
        "ctx %d finish %d compute %d loads %d stores %d l1 %d/%d l2 %d/%d \
         private %d shared %d (%d loads, %d stores) mpb %d stall %d \
         barrier %d lock %d switches %d\n"
        i c.finish_ps c.compute_ps c.loads c.stores c.l1_hits c.l1_misses
        c.l2_hits c.l2_misses c.private_dram_lines c.shared_dram_lines
        c.shared_dram_loads c.shared_dram_stores c.mpb_lines c.mem_stall_ps
        c.barrier_wait_ps c.lock_wait_ps c.context_switches)
    (Scc.Engine.stats eng).Scc.Stats.ctxs;
  let s = Scc.Engine.stats eng in
  Array.iteri
    (fun mc busy ->
      Printf.bprintf b "mc %d busy %d requests %d\n" mc busy
        s.Scc.Stats.mc_requests.(mc))
    s.Scc.Stats.mc_busy_ps;
  Printf.bprintf b "elapsed %d\n" (Scc.Engine.elapsed_ps eng);
  Buffer.contents b

let test_engine_48_core_golden () =
  let path =
    if Sys.file_exists "../test/golden" then "../test/golden/engine_48.txt"
    else "test/golden/engine_48.txt"
  in
  let ic = open_in_bin path in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "strict engine" golden (engine_48_report ~strict:true);
  Alcotest.(check string) "run-ahead engine" golden
    (engine_48_report ~strict:false)

(* --- scheduling order ------------------------------------------------------ *)

(* One step of a seeded random engine program. *)
type sched_op =
  | Compute of int
  | Private of bool * int        (* write?, line of the core's private block *)
  | Block of bool * int          (* write?, bytes from the private block *)
  | Shared of bool * int         (* write?, shared-DRAM line *)
  | Mpb of bool * int * int      (* write?, owner index, line *)

(* What one statically spawned context does in one phase: [pre], a
   critical section under [lock] (when >= 0), then with [child] <> []
   a spawn of a context on its core that runs [child] while this one
   runs [post] and joins it, and [post]; then, when a member,
   [barrier_n] with the phase's group, then the global barrier. *)
type sched_phase = {
  pre : sched_op list;
  lock : int;
  locked : sched_op list;
  child : sched_op list;
  post : sched_op list;
  group : bool;
}

let sched_cores = [| 0; 0; 0; 1; 7; 7; 12; 23; 40; 47 |]
let sched_locks = [| 0; 3; 47 |]
let sched_mpb_owners = [| 0; 5; 47 |]

let sched_program seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n and flip () = Random.State.bool st in
  let op () =
    match int 11 with
    | 0 | 1 | 2 -> Compute (1 + int 120)
    | 3 | 4 -> Private (flip (), int 256)
    | 5 -> Block (flip (), 1 + int 128)
    | 6 | 7 -> Shared (flip (), int 16)
    | _ -> Mpb (flip (), int (Array.length sched_mpb_owners), int 4)
  in
  let ops n = List.init (int (n + 1)) (fun _ -> op ()) in
  let nctx = 3 + int 10 in
  let cores = Array.init nctx (fun _ -> sched_cores.(int (Array.length sched_cores))) in
  let phases =
    List.init (2 + int 4) (fun _ ->
        let grouped = flip () in
        Array.init nctx (fun _ ->
            (* one draw per binding, in order *)
            let pre = ops 24 in
            let lock =
              if flip () then sched_locks.(int (Array.length sched_locks))
              else -1
            in
            let locked = ops 6 in
            let child =
              if int 4 = 0 then
                let first = op () in
                first :: ops 7
              else []
            in
            let post = ops 6 in
            let group = grouped && flip () in
            { pre; lock; locked; child; post; group }))
  in
  (cores, phases)

(* Runs [sched_program seed] on a fresh engine; with a trace when
   [strict], run ahead otherwise. *)
let sched_report b seed ~strict =
  let cores, phases = sched_program seed in
  let trace = if strict then Some (Scc.Trace.create ()) else None in
  let eng = Scc.Engine.create ~strict ?trace () in
  let mm = Scc.Engine.memmap eng in
  let n = Scc.Config.n_cores Scc.Config.default in
  let line = Scc.Config.default.Scc.Config.line_bytes in
  let priv =
    Array.init n (fun core ->
        Scc.Memmap.alloc mm (Scc.Memmap.Private core) ~bytes:(256 * line))
  in
  let shared = Scc.Memmap.alloc mm Scc.Memmap.Shared_dram ~bytes:(16 * line) in
  let mpb =
    Array.map
      (fun owner -> Scc.Memmap.alloc mm (Scc.Memmap.Mpb owner) ~bytes:(4 * line))
      sched_mpb_owners
  in
  let run_op api op =
    let access write addr ~bytes =
      if write then api.Scc.Engine.store addr ~bytes
      else api.Scc.Engine.load addr ~bytes
    in
    match op with
    | Compute c -> api.Scc.Engine.compute c
    | Private (w, i) -> access w (priv.(api.Scc.Engine.core) + (i * line)) ~bytes:4
    | Block (w, bytes) -> access w priv.(api.Scc.Engine.core) ~bytes
    | Shared (w, i) -> access w (shared + (i * line)) ~bytes:4
    | Mpb (w, o, i) -> access w (mpb.(o) + (i * line)) ~bytes:4
  in
  Array.iteri
    (fun i core ->
      ignore
        (Scc.Engine.spawn eng ~core (fun api ->
             List.iteri
               (fun p (phase : sched_phase array) ->
                 let ph = phase.(i) in
                 List.iter (run_op api) ph.pre;
                 if ph.lock >= 0 then begin
                   api.Scc.Engine.acquire ph.lock;
                   List.iter (run_op api) ph.locked;
                   api.Scc.Engine.release ph.lock
                 end;
                 let child =
                   if ph.child = [] then -1
                   else
                     api.Scc.Engine.spawn_child (fun capi ->
                         List.iter (run_op capi) ph.child)
                 in
                 List.iter (run_op api) ph.post;
                 if child >= 0 then api.Scc.Engine.join child;
                 if ph.group then begin
                   let count =
                     Array.fold_left
                       (fun acc (x : sched_phase) ->
                         if x.group then acc + 1 else acc)
                       0 phase
                   in
                   api.Scc.Engine.barrier_n ~id:p ~count
                 end;
                 api.Scc.Engine.barrier ())
               phases)))
    cores;
  Scc.Engine.run eng;
  Printf.bprintf b "%s events %d round_trips %d elapsed %d\n"
    (if strict then "strict" else "run-ahead")
    (Scc.Engine.events eng) (Scc.Engine.round_trips eng)
    (Scc.Engine.elapsed_ps eng);
  Array.iteri
    (fun i (c : Scc.Stats.ctx_stats) ->
      Printf.bprintf b
        "ctx %d finish %d compute %d ld/st %d/%d l1 %d/%d l2 %d/%d \
         private %d shared %d mpb %d stall %d barrier %d lock %d \
         switches %d\n"
        i c.finish_ps c.compute_ps c.loads c.stores c.l1_hits c.l1_misses
        c.l2_hits c.l2_misses c.private_dram_lines c.shared_dram_lines
        c.mpb_lines c.mem_stall_ps c.barrier_wait_ps c.lock_wait_ps
        c.context_switches)
    (Scc.Engine.stats eng).Scc.Stats.ctxs;
  match trace with
  | None -> ()
  | Some tr ->
      let intervals = Buffer.create 65536 in
      Scc.Trace.iter tr (fun e ->
          Printf.bprintf intervals "%d %d %d %d %d\n" e.Scc.Trace.ctx e.core
            e.start_ps e.end_ps e.kind);
      Printf.bprintf b "trace %d intervals md5 %s\n" (Scc.Trace.length tr)
        (Digest.to_hex (Digest.string (Buffer.contents intervals)))

(* The order in which the run loop picks contexts, pinned: seeded random
   programs that mix lone and time-sliced cores, spawned children and
   joins, locks, the global barrier, [barrier_n] groups and private,
   shared-DRAM and MPB lines, each run strict with a trace and again
   run ahead.  Any change to the ready heap or the pick path that
   changes one decision changes a finish time, a counter or the trace's
   interval sequence. *)
let sched_golden_report () =
  let b = Buffer.create 65536 in
  for seed = 1 to 12 do
    let cores, _ = sched_program seed in
    Printf.bprintf b "program %d on cores %s\n" seed
      (String.concat "," (Array.to_list (Array.map string_of_int cores)));
    sched_report b seed ~strict:true;
    sched_report b seed ~strict:false
  done;
  Buffer.contents b

let test_engine_sched_golden () =
  let path =
    if Sys.file_exists "../test/golden" then "../test/golden/engine_sched.txt"
    else "test/golden/engine_sched.txt"
  in
  let got = sched_golden_report () in
  match open_in_bin path with
  | ic ->
      let golden = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "scheduling order" golden got
  | exception Sys_error _ ->
      Alcotest.failf "missing %s (the report is %d bytes)" path
        (String.length got)

(* --- allocation on the pick path ------------------------------------------ *)

(* The ledger's sched_turns program: one context on each of cores 0-7,
   each alternating a compute burst with a load of its own shared-DRAM
   line, so nearly every operation is a round trip through the run
   loop. *)
let turns_program ~strict ~rounds =
  let eng = Scc.Engine.create ~strict () in
  for core = 0 to 7 do
    let addr =
      Scc.Memmap.alloc (Scc.Engine.memmap eng) Scc.Memmap.Shared_dram ~bytes:64
    in
    ignore
      (Scc.Engine.spawn eng ~core (fun api ->
           for _ = 1 to rounds do
             api.Scc.Engine.compute 20;
             api.Scc.Engine.load addr ~bytes:4
           done))
  done;
  eng

(* 32 contexts time-sharing core 0, each alternating a compute burst
   with a private load: the slice owner keeps the core, so nearly every
   operation is processed in place. *)
let sliced_program ~rounds =
  let eng = Scc.Engine.create () in
  let addr =
    Scc.Memmap.alloc (Scc.Engine.memmap eng) (Scc.Memmap.Private 0) ~bytes:64
  in
  for i = 0 to 31 do
    ignore
      (Scc.Engine.spawn eng ~core:0 (fun api ->
           for r = 0 to rounds - 1 do
             api.Scc.Engine.compute 20;
             api.Scc.Engine.load (addr + (((i + r) mod 16) * 4)) ~bytes:4
           done))
  done;
  eng

(* Minor words per unit of [count] that [Engine.run] allocates, from two
   sizes of one program: the difference cancels the set-up. *)
let run_words program ~count =
  let run rounds =
    let eng = program ~rounds in
    Gc.minor ();
    let before = Gc.minor_words () in
    Scc.Engine.run eng;
    (Gc.minor_words () -. before, count eng)
  in
  let w1, n1 = run 1000 and w2, n2 = run 3000 in
  (w2 -. w1) /. float_of_int (n2 - n1)

(* A round trip allocates only the continuation its yield reifies and
   the cell that parks it: no closure, tuple, option or list cell on
   the pick path, strict or run ahead.  A slice owner that keeps its
   core allocates nothing per operation. *)
let test_pick_path_allocation () =
  List.iter
    (fun strict ->
      let per_trip =
        run_words (turns_program ~strict) ~count:Scc.Engine.round_trips
      in
      if per_trip > 4.0 then
        Alcotest.failf "%s: %.3f minor words per round trip, at most 4"
          (if strict then "strict" else "run ahead") per_trip)
    [ true; false ];
  let per_event = run_words sliced_program ~count:Scc.Engine.events in
  if per_event > 0.1 then
    Alcotest.failf "32 contexts on core 0: %.3f minor words per event" per_event

(* Set-up is paid only for what a run uses: the caches of the cores a
   run never touches are never allocated. *)
let test_setup_pays_for_touched_cores () =
  let words f =
    (* start from an empty minor heap: a minor collection falling inside
       the measured call otherwise skews the counter on OCaml 5.1 *)
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let create = words (fun () -> Scc.Engine.create ()) in
  if create >= 64. *. 1024. then
    Alcotest.failf "Engine.create allocated %.0f words" create;
  let program =
    Cfront.Parser.program ~file:"pi.c" (Exp.Csrc.pi ~nt:8 ~steps:64)
  in
  let run = words (fun () -> Cexec.Interp.run_pthread program) in
  if run >= 1024. *. 1024. then
    Alcotest.failf "one-core pi run allocated %.0f words" run;
  (* nothing a trivial 8-rank run builds is large enough to go straight
     to the major heap: no whole L2, no dense store (major minus
     promoted words, exact where the minor count is not) *)
  let trivial =
    Cfront.Parser.program ~file:"trivial.c"
      "int RCCE_APP(int argc, char **argv) {\n\
      \  RCCE_init(&argc, &argv);\n  RCCE_finalize();\n  return 0;\n}\n"
  in
  let _, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (Cexec.Interp.run_rcce ~ncores:8 trivial));
  let _, promoted1, major1 = Gc.counters () in
  let direct = major1 -. promoted1 -. (major0 -. promoted0) in
  if direct > 10_000. then
    Alcotest.failf "trivial 8-rank run allocated %.0f major words" direct

let suite =
  [
    Alcotest.test_case "cache basics" `Quick test_cache_basics;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache dirty writeback" `Quick
      test_cache_dirty_writeback;
    Alcotest.test_case "cache flush and rates" `Quick
      test_cache_flush_and_rates;
    Alcotest.test_case "cache bad geometry" `Quick test_cache_bad_geometry;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
      qcheck_cache_matches_reference;
    Alcotest.test_case "memmap regions" `Quick test_memmap_regions_roundtrip;
    Alcotest.test_case "memmap alignment" `Quick test_memmap_line_alignment;
    Alcotest.test_case "MPB capacity" `Quick test_mpb_capacity_enforced;
    Alcotest.test_case "MPB striping" `Quick test_mpb_striping;
    Alcotest.test_case "memmap decoder boundaries" `Quick
      test_memmap_decoder_boundaries;
    Alcotest.test_case "mesh hops" `Quick test_mesh_hops;
    Alcotest.test_case "mesh core mapping" `Quick test_mesh_core_mapping;
    Alcotest.test_case "mesh MC quadrants" `Quick test_mesh_mc_quadrants;
    Alcotest.test_case "power endpoints" `Quick test_power_endpoints;
    Alcotest.test_case "power energy" `Quick test_power_monotone_energy;
    Alcotest.test_case "engine determinism" `Quick test_engine_determinism;
    Alcotest.test_case "engine compute timing" `Quick
      test_engine_compute_timing;
    Alcotest.test_case "engine barrier" `Quick test_engine_barrier_sync;
    Alcotest.test_case "engine lock exclusion" `Quick
      test_engine_lock_mutual_exclusion;
    Alcotest.test_case "engine bad release" `Quick
      test_engine_release_without_hold;
    Alcotest.test_case "engine deadlock" `Quick test_engine_deadlock_detected;
    Alcotest.test_case "engine spawn/join" `Quick test_engine_spawn_join;
    Alcotest.test_case "engine shared core" `Quick
      test_engine_shared_core_serializes;
    Alcotest.test_case "engine MC contention" `Quick
      test_engine_mc_contention_monotone;
    Alcotest.test_case "engine MPB vs DRAM" `Quick
      test_engine_mpb_faster_than_shared_dram;
    Alcotest.test_case "engine private vs shared" `Quick
      test_engine_cached_private_beats_shared;
    Alcotest.test_case "posted shared writes" `Quick
      test_posted_writes_cheaper;
    Alcotest.test_case "spawn after run" `Quick test_spawn_after_run_rejected;
    Alcotest.test_case "48-core engine golden" `Quick
      test_engine_48_core_golden;
    Alcotest.test_case "set-up paid for touched cores only" `Quick
      test_setup_pays_for_touched_cores;
    Alcotest.test_case "scheduling order golden" `Quick
      test_engine_sched_golden;
    Alcotest.test_case "pick path allocates only the continuation" `Quick
      test_pick_path_allocation;
  ]

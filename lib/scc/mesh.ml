(* The 6x4 tile mesh: XY coordinates, hop counts, and the mapping of cores
   to tiles and of tiles to their memory controller.

   The four DDR3 controllers sit at the mesh corners; each quadrant's
   tiles use the controller of their corner, so at 32+ active cores at
   least 8 cores contend for each controller — the effect behind the
   paper's Dot Product / LU Decomposition observation. *)

type t = {
  cfg : Config.t;
  mc_tiles : int array;   (* tile id of each memory controller *)
}

let tile_of_xy cfg ~x ~y = (y * cfg.Config.mesh_cols) + x

let create (cfg : Config.t) =
  let right = cfg.Config.mesh_cols - 1 in
  let bottom = cfg.Config.mesh_rows - 1 in
  let mc_tiles =
    [|
      tile_of_xy cfg ~x:0 ~y:0;
      tile_of_xy cfg ~x:right ~y:0;
      tile_of_xy cfg ~x:0 ~y:bottom;
      tile_of_xy cfg ~x:right ~y:bottom;
    |]
  in
  { cfg; mc_tiles }

let tile_of_core t core = core / t.cfg.Config.cores_per_tile

let xy_of_tile t tile =
  (tile mod t.cfg.Config.mesh_cols, tile / t.cfg.Config.mesh_cols)

(* XY (dimension-ordered) routing distance. *)
let hops t ~from_tile ~to_tile =
  let x0, y0 = xy_of_tile t from_tile in
  let x1, y1 = xy_of_tile t to_tile in
  abs (x1 - x0) + abs (y1 - y0)

let n_mcs t = Array.length t.mc_tiles

(* The controller serving a core's memory: the nearest corner, ties
   broken toward the lower MC index (deterministic). *)
let mc_of_core t core =
  let tile = tile_of_core t core in
  let best = ref 0 in
  let best_hops = ref max_int in
  Array.iteri
    (fun i mc_tile ->
      let h = hops t ~from_tile:tile ~to_tile:mc_tile in
      if h < !best_hops then begin
        best := i;
        best_hops := h
      end)
    t.mc_tiles;
  !best

let hops_core_to_mc t ~core ~mc =
  hops t ~from_tile:(tile_of_core t core) ~to_tile:t.mc_tiles.(mc)

let hops_core_to_core t ~from_core ~to_core =
  hops t ~from_tile:(tile_of_core t from_core)
    ~to_tile:(tile_of_core t to_core)

(* One-way mesh traversal time in picoseconds. *)
let traverse_ps t ~hops:h =
  Config.mesh_cycles_ps t.cfg (h * t.cfg.Config.mesh_cycles_per_hop)

(* The minimum latency for one tile to affect another: a single-hop mesh
   traversal.  No cross-tile interaction — a remote MPB access, a
   memory-controller request, a flag write — can land sooner; the
   MPB-speed what-if prices a nominal MPB line with it. *)
let min_hop_ps t = traverse_ps t ~hops:1

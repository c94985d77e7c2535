(* Eraser-style lockset race detection (Savage et al., TOCS 1997 — one of
   the dynamic approaches the paper's related-work chapter surveys).

   Every memory location moves through the Eraser state machine:

     Virgin -> Exclusive(first thread) -> Shared (second thread reads)
                                       -> Shared_modified (second thread
                                          writes, or a write while Shared)

   From the moment a second thread touches the location, its candidate
   lockset is intersected with the locks the accessing thread holds; an
   empty candidate set in Shared_modified is a data race.  Each location
   is reported at most once. *)

module Int_set = Set.Make (Int)

type state =
  | Virgin
  | Exclusive of int          (* owning context *)
  | Shared
  | Shared_modified

type entry = {
  mutable state : state;
  mutable candidates : Int_set.t;
  mutable reported : bool;
}

type report = {
  addr : int;
  location : string;   (* variable or region name, when known *)
  loc : Cfront.Srcloc.t option;   (* declaration site of the region *)
  by_ctx : int;
  write : bool;
}

type region = {
  base : int;
  bytes : int;
  name : string;
  decl_loc : Cfront.Srcloc.t option;
}

type t = {
  entries : (int, entry) Hashtbl.t;
  mutable regions : region list;
  mutable reports : report list;
}

let create () =
  { entries = Hashtbl.create 256; regions = []; reports = [] }

let name_region t ?loc ~base ~bytes name =
  t.regions <- { base; bytes; name; decl_loc = loc } :: t.regions

let region_of t addr =
  List.find_opt
    (fun r -> addr >= r.base && addr < r.base + r.bytes)
    t.regions

let location_of t addr =
  match region_of t addr with
  | None -> Printf.sprintf "address %#x" addr
  | Some r ->
      if r.bytes <= 8 then r.name
      else Printf.sprintf "%s[+%d]" r.name (addr - r.base)

let entry_of t addr =
  match Hashtbl.find_opt t.entries addr with
  | Some e -> e
  | None ->
      let e = { state = Virgin; candidates = Int_set.empty; reported = false } in
      Hashtbl.replace t.entries addr e;
      e

let report t e ~addr ~ctx ~write =
  if not e.reported then begin
    e.reported <- true;
    let loc = Option.bind (region_of t addr) (fun r -> r.decl_loc) in
    t.reports <-
      { addr; location = location_of t addr; loc; by_ctx = ctx; write }
      :: t.reports
  end

(* One access by context [ctx] holding [held], at [addr]. *)
let access t ~ctx ~held ~write addr =
  let e = entry_of t addr in
  match e.state with
  | Virgin -> e.state <- Exclusive ctx
  | Exclusive owner when owner = ctx -> ()
  | Exclusive _ ->
      e.candidates <- held;
      if write then begin
        e.state <- Shared_modified;
        if Int_set.is_empty e.candidates then report t e ~addr ~ctx ~write
      end
      else e.state <- Shared
  | Shared ->
      e.candidates <- Int_set.inter e.candidates held;
      if write then begin
        e.state <- Shared_modified;
        if Int_set.is_empty e.candidates then report t e ~addr ~ctx ~write
      end
  | Shared_modified ->
      e.candidates <- Int_set.inter e.candidates held;
      if Int_set.is_empty e.candidates then report t e ~addr ~ctx ~write

(* A global synchronization point (barrier, join): accesses before it are
   ordered before accesses after it, so the state machine restarts for
   every location.  This is a pragmatic happens-before approximation —
   precise for whole-world barriers and join-all patterns, and it hides a
   race only when both conflicting accesses straddle the point on which
   they are in fact ordered. *)
let synchronize t =
  Hashtbl.iter
    (fun _ e ->
      e.state <- Virgin;
      e.candidates <- Int_set.empty)
    t.entries

let reports t = List.rev t.reports

let report_to_string r =
  let where =
    match r.loc with
    | Some loc -> Printf.sprintf " (declared at %s)" (Cfront.Srcloc.to_string loc)
    | None -> ""
  in
  Printf.sprintf "data race: %s %s by context %d with no common lock%s"
    (if r.write then "written" else "read")
    r.location r.by_ctx where

(* The dynamic reports flow through the same diagnostics engine as the
   static detector's, so [hsmcc run] and [hsmcc check] print alike. *)
let report_to_diag r =
  Diag.warning ?loc:r.loc ~code:"race-dynamic"
    (Printf.sprintf "data race: %s %s by context %d with no common lock"
       (if r.write then "written" else "read")
       r.location r.by_ctx)

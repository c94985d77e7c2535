(* A fixed-order domain pool for the experiment sweeps.

   Thunks are claimed by index from a single atomic counter, executed on
   [jobs] domains (the calling domain plus [jobs - 1] spawned ones), and
   gathered into an array slot keyed by the claim index — so the result
   order is the input order no matter which domain finished first, and
   concatenated output is byte-identical to a sequential run.
   [jobs = 1] bypasses the pool entirely and runs in the calling domain,
   giving a true sequential reference.

   The caller works rather than blocking in [Domain.join]: with [jobs]
   spawned workers and an idle caller, [jobs + 1] domains share [jobs]
   CPUs, and allocating thunks lose the second CPU's gain to the extra
   domain's stop-the-world minor collections.

   A thunk that raises poisons only its own slot; the first failure (in
   input order, not completion order) is re-raised in the caller once
   every domain has been joined, so no domain is ever left running. *)

let default_jobs () = Domain.recommended_domain_count ()

let map_fixed ~jobs thunks =
  let n = List.length thunks in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then List.map (fun f -> f ()) thunks
  else begin
    let work = Array.of_list thunks in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
             (match work.(i) () with
             | v -> Some (Ok v)
             | exception e -> Some (Error e)));
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> invalid_arg "Pool.map_fixed: unclaimed slot")
  end

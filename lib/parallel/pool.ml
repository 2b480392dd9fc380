(* Per-call fork-join. See pool.mli for the contract.

   Chunks are claimed with [Atomic.fetch_and_add], so imbalance
   self-corrects without per-deque stealing. Each item's outcome goes
   to its own slot; slots are disjoint, and [Domain.join] makes every
   helper's writes visible to the caller before it reads them. *)

let max_domains = 128
let clamp n = if n < 1 then 1 else if n > max_domains then max_domains else n

let default_domains () =
  match Sys.getenv_opt "RPKI_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> clamp n
     | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

type 'b slot = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

let parallel_map ?domains ~f arr =
  let n = Array.length arr in
  let d = min n (clamp (match domains with Some d -> d | None -> default_domains ())) in
  if d <= 1 then Array.map f arr
  else begin
    let chunks = min n (4 * d) in
    let slots = Array.make n Pending in
    let next = Atomic.make 0 in
    let rec work () =
      let c = Atomic.fetch_and_add next 1 in
      if c < chunks then begin
        for i = c * n / chunks to ((c + 1) * n / chunks) - 1 do
          slots.(i) <-
            (match f arr.(i) with
             | v -> Done v
             | exception e -> Failed (e, Printexc.get_raw_backtrace ()))
        done;
        work ()
      end
    in
    let helpers = ref [] in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join !helpers)
      (fun () ->
        for _ = 2 to d do
          helpers := Domain.spawn work :: !helpers
        done;
        work ());
    (* In index order, so the first failure met is the lowest-indexed. *)
    Array.map
      (function
        | Done v -> v
        | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending -> assert false)
      slots
  end

let parallel_tasks ?domains thunks =
  Array.to_list (parallel_map ?domains ~f:(fun th -> th ()) (Array.of_list thunks))

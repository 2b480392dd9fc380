module Pfx = Netaddr.Pfx
module Bgp = Arena.Bgp_db
module Store = Arena.Vrp_store
module Kernel = Arena.Group_compress

type event =
  | Announce of Pfx.t * Asnum.t
  | Withdraw of Pfx.t * Asnum.t
  | Add_vrp of Vrp.t
  | Remove_vrp of Vrp.t

let pair_compare (p1, a1) (p2, a2) =
  let c = Pfx.compare p1 p2 in
  if c <> 0 then c else Asnum.compare a1 a2

let event_to_string = function
  | Announce (p, a) -> Printf.sprintf "announce %s %s" (Pfx.to_string p) (Asnum.to_string a)
  | Withdraw (p, a) -> Printf.sprintf "withdraw %s %s" (Pfx.to_string p) (Asnum.to_string a)
  | Add_vrp v -> Printf.sprintf "add-vrp %s" (Vrp.to_string v)
  | Remove_vrp v -> Printf.sprintf "remove-vrp %s" (Vrp.to_string v)
  [@@lint.test_only "test failure messages name the event"]

let pp_event ppf e = Format.pp_print_string ppf (event_to_string e)
  [@@lint.test_only "alcotest printer: test_churn's event testable"]

let event_compare a b =
  let pair_cmp p1 a1 p2 a2 =
    let c = Pfx.compare p1 p2 in
    if c <> 0 then c else Asnum.compare a1 a2
  in
  match (a, b) with
  | Announce (p1, a1), Announce (p2, a2) -> pair_cmp p1 a1 p2 a2
  | Announce _, _ -> -1
  | _, Announce _ -> 1
  | Withdraw (p1, a1), Withdraw (p2, a2) -> pair_cmp p1 a1 p2 a2
  | Withdraw _, _ -> -1
  | _, Withdraw _ -> 1
  | Add_vrp v1, Add_vrp v2 -> Vrp.compare v1 v2
  | Add_vrp _, _ -> -1
  | _, Add_vrp _ -> 1
  | Remove_vrp v1, Remove_vrp v2 -> Vrp.compare v1 v2

let event_equal a b = event_compare a b = 0
  [@@lint.test_only "alcotest equality: test_churn's event testable"]

type stats = { noops : int; group_recomputes : int; store_sorts : int }

(* One (origin AS, family) compression group. [out] caches the group's
   compressed VRPs in canonical order and is valid exactly when [dirty]
   is false; a VRP add/remove in the group only marks it dirty,
   deferring the kernel run to the next [compressed]/[flush]. *)
type group = {
  mutable members : Vrp.Set.t;
  mutable out : Vrp.t list;
  mutable dirty : bool;
}

type t = {
  mode : Kernel.mode;
  bgp : Bgp.t;  (** Live announced (prefix, origin) pairs. *)
  vdb : Validation.db;  (** Live VRPs — the RFC 6811 database. *)
  valid : Validation.db;
      (** Announced pairs currently RFC-6811-Valid, stored as exact
          VRPs (max_len = prefix length). *)
  nonmin : Validation.db;
      (** Live maxLength VRPs that are currently non-minimal — the
          paper's attack surface, maintained incrementally. *)
  groups : (int, group) Hashtbl.t;
      (** Key = [(asn lsl 1) lor afi_to_int fam]. *)
  mutable out : Vrp.Set.t;
      (** Union of every clean group's [out] — the compressed set. *)
  mutable dirty_keys : int list;
  scratch : Store.t;
  tr4 : Kernel.scratch;
  tr6 : Kernel.scratch;
  mutable n_noop : int;
  mutable n_recomputes : int;
}

let group_key (v : Vrp.t) =
  (Asnum.to_int v.Vrp.asn lsl 1) lor Pfx.afi_to_int (Pfx.afi v.Vrp.prefix)

let group_of t key =
  match Hashtbl.find_opt t.groups key with
  | Some g -> g
  | None ->
      let g = { members = Vrp.Set.empty; out = []; dirty = false } in
      Hashtbl.add t.groups key g;
      g

let mark_dirty t key g =
  if not g.dirty then begin
    g.dirty <- true;
    t.dirty_keys <- key :: t.dirty_keys
  end

(* --- minimality ------------------------------------------------------ *)

let recheck_minimality t (v : Vrp.t) =
  if Bgp.fully_announced t.bgp v.Vrp.prefix ~asn:(Asnum.to_int v.Vrp.asn) ~max_len:v.Vrp.max_len
  then ignore (Validation.remove t.nonmin v)
  else ignore (Validation.add t.nonmin v)

(* A BGP change at (p, a) can only move the minimality of maxLength
   VRPs that cover p with the same origin and a maxLength admitting
   p's length — everything else's census is untouched. *)
let recheck_covering t p a =
  let pl = Pfx.length p in
  List.iter
    (fun (v : Vrp.t) ->
      if Asnum.equal v.Vrp.asn a && Vrp.uses_max_len v && pl <= v.Vrp.max_len
      then recheck_minimality t v)
    (Validation.covering_vrps t.vdb p)

(* A VRP change at prefix q can only move the RFC 6811 state of
   announced pairs covered by q — the rest keep their covering set. *)
let revalidate_under t q =
  Bgp.fold_under t.bgp q ~init:() ~f:(fun () p asn ->
      let a = Asnum.of_int asn in
      let e = Vrp.exact p a in
      if Validation.authorized t.vdb p a then ignore (Validation.add t.valid e)
      else ignore (Validation.remove t.valid e))

(* --- event application ----------------------------------------------- *)

let apply t ev =
  let changed =
    match ev with
    | Announce (p, a) ->
        let asn = Asnum.to_int a in
        if Bgp.mem t.bgp p ~asn then false
        else begin
          Bgp.add t.bgp p ~asn;
          if Validation.authorized t.vdb p a then
            ignore (Validation.add t.valid (Vrp.exact p a));
          recheck_covering t p a;
          true
        end
    | Withdraw (p, a) ->
        if Bgp.remove t.bgp p ~asn:(Asnum.to_int a) then begin
          ignore (Validation.remove t.valid (Vrp.exact p a));
          recheck_covering t p a;
          true
        end
        else false
    | Add_vrp v ->
        if Validation.add t.vdb v then begin
          let key = group_key v in
          let g = group_of t key in
          g.members <- Vrp.Set.add v g.members;
          mark_dirty t key g;
          revalidate_under t v.Vrp.prefix;
          if Vrp.uses_max_len v then recheck_minimality t v;
          true
        end
        else false
    | Remove_vrp v ->
        if Validation.remove t.vdb v then begin
          let key = group_key v in
          let g = group_of t key in
          g.members <- Vrp.Set.remove v g.members;
          mark_dirty t key g;
          revalidate_under t v.Vrp.prefix;
          ignore (Validation.remove t.nonmin v);
          true
        end
        else false
  in
  if not changed then t.n_noop <- t.n_noop + 1;
  changed

(* The state a replay of [Add_vrp]s, then [Announce]s, reaches, built
   from the canonical seed in bulk. VRPs replay before pairs, so no
   VRP's revalidation sees a pair: [valid] holds the exact VRPs of the
   pairs [vdb] authorizes, and each maxLength VRP's last minimality
   check is against the final table. The BGP store is filled from the
   default size, as the replay's announces fill it, so its columns
   keep the headroom the replay's growth leaves for the first
   transitions. *)
let create ?(mode = Kernel.Strict) ?(pairs = []) ?(vrps = []) () =
  let distinct_vrps = Canonical.sort_uniq Vrp.compare vrps in
  let distinct_pairs = Canonical.sort_uniq pair_compare pairs in
  let bgp = Bgp.create () in
  List.iter (fun (p, a) -> Bgp.add bgp p ~asn:(Asnum.to_int a)) distinct_pairs;
  let vdb = Validation.create distinct_vrps in
  let valid =
    Validation.create
      (List.filter_map
         (fun (p, a) -> if Validation.authorized vdb p a then Some (Vrp.exact p a) else None)
         distinct_pairs)
  in
  let nonmin =
    Validation.create
      (List.filter
         (fun (v : Vrp.t) ->
           Vrp.uses_max_len v
           && not
                (Bgp.fully_announced bgp v.Vrp.prefix ~asn:(Asnum.to_int v.Vrp.asn)
                   ~max_len:v.Vrp.max_len))
         distinct_vrps)
  in
  let t =
    {
      mode;
      bgp;
      vdb;
      valid;
      nonmin;
      groups = Hashtbl.create 64;
      out = Vrp.Set.empty;
      dirty_keys = [];
      scratch = Store.create ~capacity:64;
      tr4 = Kernel.scratch Pfx.Afi_v4;
      tr6 = Kernel.scratch Pfx.Afi_v6;
      (* every duplicate the replay would have met is a no-op *)
      n_noop =
        List.length vrps - List.length distinct_vrps
        + (List.length pairs - List.length distinct_pairs);
      n_recomputes = 0;
    }
  in
  List.iter
    (fun v ->
      let key = group_key v in
      let g = group_of t key in
      g.members <- Vrp.Set.add v g.members;
      mark_dirty t key g)
    distinct_vrps;
  t

(* --- compressed state ------------------------------------------------ *)

(* Merge-walk a group's old and new outputs, both canonical: departed
   tuples leave [t.out], arrivals join it, and every survivor keeps
   its old value, so successive [compressed] lists share it. Returns
   the group's new output. *)
let rec merge_out t old next acc =
  match (old, next) with
  | [], [] -> List.rev acc
  | o :: os, [] ->
      t.out <- Vrp.Set.remove o t.out;
      merge_out t os [] acc
  | [], n :: ns ->
      t.out <- Vrp.Set.add n t.out;
      merge_out t [] ns (n :: acc)
  | o :: os, n :: ns ->
      let c = Vrp.compare o n in
      if c = 0 then merge_out t os ns (o :: acc)
      else if c < 0 then begin
        t.out <- Vrp.Set.remove o t.out;
        merge_out t os next acc
      end
      else begin
        t.out <- Vrp.Set.add n t.out;
        merge_out t old ns (n :: acc)
      end

let flush_group t key g =
  if g.dirty then begin
    let old = g.out in
    if Vrp.Set.is_empty g.members then g.out <- []
    else begin
      t.n_recomputes <- t.n_recomputes + 1;
      let st = t.scratch in
      Store.clear st;
      Vrp.Set.iter
        (fun (v : Vrp.t) ->
          Store.push st v.Vrp.prefix ~max_len:v.Vrp.max_len
            ~asn:(Asnum.to_int v.Vrp.asn))
        g.members;
      Store.sort_dedup st;
      let tr = if key land 1 = 0 then t.tr4 else t.tr6 in
      let r =
        Kernel.compress_range tr st ~mode:t.mode ~lo:0 ~hi:(Store.length st)
      in
      let asn = Asnum.of_int (key lsr 1) in
      g.out <-
        Array.fold_right
          (fun packed acc ->
            let idx = packed lsr 8 and max_len = packed land 0xff in
            Vrp.make_exn (Store.prefix st idx) ~max_len asn :: acc)
          r.Kernel.out []
    end;
    g.out <- merge_out t old g.out [];
    g.dirty <- false
  end

let flush t =
  let keys = t.dirty_keys in
  t.dirty_keys <- [];
  List.iter (fun key -> flush_group t key (group_of t key)) keys

let compressed t =
  flush t;
  Vrp.Set.elements t.out

(* --- accessors ------------------------------------------------------- *)

let vrps t = Validation.vrps t.vdb
let vrp_count t = Validation.cardinal t.vdb

let pairs t = Bgp.to_list t.bgp Bgp.All ~make:(fun p asn -> (p, Asnum.of_int asn))
  [@@lint.test_only "witness: the differential reads the engine's state"]

let pair_count t = Bgp.cardinal t.bgp
let valid_pairs t = List.map (fun (v : Vrp.t) -> (v.Vrp.prefix, v.Vrp.asn)) (Validation.vrps t.valid)
  [@@lint.test_only "witness: the differential reads the engine's state"]
let non_minimal t = Validation.vrps t.nonmin
  [@@lint.test_only "witness: the differential reads the engine's state"]

let stats t =
  {
    noops = t.n_noop;
    group_recomputes = t.n_recomputes;
    store_sorts = Store.sort_count t.scratch;
  }
  [@@lint.test_only "witness: tests read the engine's counters"]

let self_check t =
  let tagged tag = function
    | Ok () -> Ok ()
    | Error e -> Error (tag ^ ": " ^ e)
  in
  match tagged "bgp" (Bgp.self_check t.bgp) with
  | Error _ as e -> e
  | Ok () -> (
      match tagged "vrps" (Validation.self_check t.vdb) with
      | Error _ as e -> e
      | Ok () -> (
          match tagged "valid" (Validation.self_check t.valid) with
          | Error _ as e -> e
          | Ok () -> tagged "non-minimal" (Validation.self_check t.nonmin)))
  [@@lint.test_only "witness: the engine audits its own invariants for the tests"]

module Pfx = Netaddr.Pfx
module Bgp = Arena.Bgp_db
module Store = Arena.Vrp_store
module Itrie = Arena.Itrie
module Kernel = Arena.Group_compress

type event =
  | Announce of Pfx.t * Asnum.t
  | Withdraw of Pfx.t * Asnum.t
  | Add_vrp of Vrp.t
  | Remove_vrp of Vrp.t

let event_to_string = function
  | Announce (p, a) -> Printf.sprintf "announce %s %s" (Pfx.to_string p) (Asnum.to_string a)
  | Withdraw (p, a) -> Printf.sprintf "withdraw %s %s" (Pfx.to_string p) (Asnum.to_string a)
  | Add_vrp v -> Printf.sprintf "add-vrp %s" (Vrp.to_string v)
  | Remove_vrp v -> Printf.sprintf "remove-vrp %s" (Vrp.to_string v)

let pp_event ppf e = Format.pp_print_string ppf (event_to_string e)

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

type stats = {
  events : int;
  bgp_changes : int;
  vrp_changes : int;
  noops : int;
  group_recomputes : int;
  tuples_recompressed : int;
  revalidated_pairs : int;
  minimality_checks : int;
  store_sorts : int;
}

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
  eliminate : bool;
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
  tr4 : Itrie.t;
  tr6 : Itrie.t;
  mutable n_events : int;
  mutable n_bgp : int;
  mutable n_vrp : int;
  mutable n_noop : int;
  mutable n_recomputes : int;
  mutable n_tuples : int;
  mutable n_revalidated : int;
  mutable n_min_checks : int;
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

(* Same recursion as [Mlcore.Minimal.fully_announced]: every length
   slice [base, max_len] must be fully announced by the origin for the
   maxLength VRP to be harmless. *)
let rec fully_announced counts n i =
  i >= n || (counts.(i) = 1 lsl min i 30 && fully_announced counts n (i + 1))

let is_minimal t (v : Vrp.t) =
  let base = Pfx.length v.Vrp.prefix in
  let counts = Array.make (v.Vrp.max_len - base + 1) 0 in
  Bgp.count_into t.bgp v.Vrp.prefix ~asn:(Asnum.to_int v.Vrp.asn) ~base
    ~max_len:v.Vrp.max_len counts;
  fully_announced counts (Array.length counts) 0

let recheck_minimality t v =
  t.n_min_checks <- t.n_min_checks + 1;
  if is_minimal t v then ignore (Validation.remove t.nonmin v)
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
      t.n_revalidated <- t.n_revalidated + 1;
      let a = Asnum.of_int asn in
      let e = Vrp.exact p a in
      if Validation.authorized t.vdb p a then ignore (Validation.add t.valid e)
      else ignore (Validation.remove t.valid e))

(* --- event application ----------------------------------------------- *)

let apply t ev =
  t.n_events <- t.n_events + 1;
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
  (match (ev, changed) with
  | _, false -> t.n_noop <- t.n_noop + 1
  | (Announce _ | Withdraw _), true -> t.n_bgp <- t.n_bgp + 1
  | (Add_vrp _ | Remove_vrp _), true -> t.n_vrp <- t.n_vrp + 1);
  changed

let create ?(mode = Kernel.Strict) ?(eliminate = true) ?(pairs = [])
    ?(vrps = []) () =
  let t =
    {
      mode;
      eliminate;
      bgp = Bgp.create ();
      vdb = Validation.create [];
      valid = Validation.create [];
      nonmin = Validation.create [];
      groups = Hashtbl.create 64;
      out = Vrp.Set.empty;
      dirty_keys = [];
      scratch = Store.create ~capacity:64;
      tr4 = Itrie.create ~capacity:256 Pfx.Afi_v4;
      tr6 = Itrie.create ~capacity:256 Pfx.Afi_v6;
      n_events = 0;
      n_bgp = 0;
      n_vrp = 0;
      n_noop = 0;
      n_recomputes = 0;
      n_tuples = 0;
      n_revalidated = 0;
      n_min_checks = 0;
    }
  in
  List.iter (fun v -> ignore (apply t (Add_vrp v))) vrps;
  List.iter (fun (p, a) -> ignore (apply t (Announce (p, a)))) pairs;
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
    let n = Vrp.Set.cardinal g.members in
    if n = 0 then g.out <- []
    else begin
      t.n_recomputes <- t.n_recomputes + 1;
      t.n_tuples <- t.n_tuples + n;
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
        Kernel.compress_range tr st ~mode:t.mode ~eliminate:t.eliminate ~lo:0
          ~hi:(Store.length st)
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

let pairs t =
  List.rev
    (Bgp.fold_all t.bgp ~init:[] ~f:(fun acc p asn ->
         (p, Asnum.of_int asn) :: acc))

let pair_count t = Bgp.cardinal t.bgp
let valid_pairs t = List.map (fun (v : Vrp.t) -> (v.Vrp.prefix, v.Vrp.asn)) (Validation.vrps t.valid)
let valid_count t = Validation.cardinal t.valid
let non_minimal t = Validation.vrps t.nonmin
let non_minimal_count t = Validation.cardinal t.nonmin
let validation t = t.vdb

let stats t =
  {
    events = t.n_events;
    bgp_changes = t.n_bgp;
    vrp_changes = t.n_vrp;
    noops = t.n_noop;
    group_recomputes = t.n_recomputes;
    tuples_recompressed = t.n_tuples;
    revalidated_pairs = t.n_revalidated;
    minimality_checks = t.n_min_checks;
    store_sorts = Store.sort_count t.scratch;
  }

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

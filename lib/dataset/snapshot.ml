module Pfx = Netaddr.Pfx
module Asnum = Rpki.Asnum
module Roa = Rpki.Roa

type params = {
  pairs_target : int;
  v6_share : float;
  new_as_probability : float;
  p_chain : float * float * float;
  p_incomplete : float;
  adopter_fraction : float;
  w_flat : int;
  w_cover : int;
  w_legacy : int;
  p_slack : float;
  cover_children_mean : float;
  p_cover_chain : float * float;
  stale_entry_probability : float;
  roa_group_size : int;
}

let default_params =
  {
    pairs_target = 776_945;
    v6_share = 0.08;
    new_as_probability = 0.24;
    p_chain = (0.026, 0.007, 0.0012);
    p_incomplete = 0.004;
    adopter_fraction = 0.048;
    w_flat = 87;
    w_cover = 12;
    w_legacy = 4;
    p_slack = 0.84;
    cover_children_mean = 5.6;
    p_cover_chain = (0.8, 0.2);
    stale_entry_probability = 0.02;
    roa_group_size = 5;
  }

let scaled f =
  { default_params with
    pairs_target = max 200 (int_of_float (float_of_int default_params.pairs_target *. f)) }

type t = { params : params; seed : int; table : Bgp_table.t; roas : Roa.t list }

(* --- address allocation: disjoint aligned blocks, families separate --- *)

type alloc = { mutable next_v4 : int; mutable next_v6 : int64 }

let fresh_alloc () = { next_v4 = 1 lsl 24 (* 1.0.0.0 *); next_v6 = 0x2000_0000_0000_0000L }

let alloc_v4 al len =
  let size = 1 lsl (32 - len) in
  let aligned = (al.next_v4 + size - 1) / size * size in
  if aligned + size > 1 lsl 32 then failwith "Snapshot: IPv4 space exhausted";
  al.next_v4 <- aligned + size;
  Pfx.v4 (Netaddr.Ipv4.Prefix.make (Netaddr.Ipv4.of_int32_bits aligned) len)

(* IPv6 prefixes here never exceed /48, so allocation happens entirely
   in the top 64 bits. *)
let alloc_v6 al len =
  let size = Int64.shift_left 1L (64 - len) in
  let aligned =
    Int64.mul (Int64.div (Int64.add al.next_v6 (Int64.sub size 1L)) size) size
  in
  al.next_v6 <- Int64.add aligned size;
  Pfx.v6 (Netaddr.Ipv6.Prefix.make (Netaddr.Ipv6.make aligned 0L) len)

let v4_base_lengths =
  [ (3, 16); (1, 17); (2, 18); (3, 19); (6, 20); (6, 21); (13, 22); (13, 23); (53, 24) ]

let v6_base_lengths = [ (5, 29); (30, 32); (5, 36); (10, 40); (10, 44); (40, 48) ]

(* maxLength users hold larger allocations (they cover space they might
   de-aggregate into), so cover-style bases skew shorter. *)
let v4_cover_lengths = [ (20, 16); (10, 17); (15, 18); (15, 19); (20, 20); (10, 21); (10, 22) ]
let v6_cover_lengths = [ (20, 29); (40, 32); (20, 36); (20, 40) ]

(* Deepest length de-aggregation may reach: routers commonly discard
   longer announcements (cf. RIPE-399). *)
let depth_cap p = match Pfx.afi p with Pfx.Afi_v4 -> 24 | Pfx.Afi_v6 -> 48

type style = Not_adopter | Flat | Cover | Legacy

type base = {
  prefix : Pfx.t;
  asn : Asnum.t;
  children : Pfx.t list; (* announced subprefixes *)
  cover_max_len : int option; (* Some m: this base gets a maxLength entry *)
  chain_depth : int; (* 0 = no complete chain *)
}

(* A complete chain: every subprefix of [p] down to depth [d]. *)
let chain_children p d =
  let rec go level acc frontier =
    if level = 0 then acc
    else
      let next = List.concat_map (fun q -> match Pfx.split q with Some (a, b) -> [ a; b ] | None -> []) frontier in
      go (level - 1) (acc @ next) next
  in
  go d [] [ p ]

(* Scattered children that do NOT complete any level: distinct random
   subprefixes at [depth] >= 2 below the base, capped well under the
   2^depth slots, or a single child at depth 1. *)
let scattered_children rng p k =
  if k <= 0 then []
  else begin
    let cap = depth_cap p in
    let avail = cap - Pfx.length p in
    if avail <= 0 then []
    else if k = 1 && (avail = 1 || Rng.bool rng) then begin
      match Pfx.split p with
      | None -> []
      | Some (a, b) -> [ (if Rng.bool rng then a else b) ]
    end
    else begin
      (* Deep enough that [k] children leave most slots empty (so no
         level completes by accident). *)
      let rec needed_depth d = if 1 lsl d >= 2 * (k + 1) then d else needed_depth (d + 1) in
      let depth = min avail (max (needed_depth 1) (2 + Rng.int rng 3)) in
      let slots = 1 lsl min depth 20 in
      let k = min k (max 1 ((slots / 2) - 1)) in
      let seen = Hashtbl.create 8 in
      let out = ref [] in
      let attempts = ref 0 in
      while List.length !out < k && !attempts < k * 20 do
        incr attempts;
        let idx = Rng.int rng slots in
        if not (Hashtbl.mem seen idx) then begin
          Hashtbl.replace seen idx ();
          (* Walk [depth] splits guided by the bits of [idx]. *)
          let rec descend q level =
            if level = 0 then q
            else
              match Pfx.split q with
              | None -> q
              | Some (a, b) ->
                descend (if idx lsr (level - 1) land 1 = 0 then a else b) (level - 1)
          in
          out := descend p depth :: !out
        end
      done;
      !out
    end
  end

let heavy_tail_count rng mean =
  (* Mixture giving the paper's cover shape: many covers have 0-1
     announced children, most a handful, a few are giants — the mean
     tracks [cover_children_mean]. *)
  let u = Rng.float rng in
  if u < 0.30 then Rng.int rng 2 (* 0 or 1 *)
  else if u < 0.90 then 1 + Rng.geometric rng ~p:(1.0 /. mean)
  else 8 + Rng.geometric rng ~p:0.10

(* Where the generation loop crossed a pair target: the bases generated
   so far, their pair counts, and the allocator as the loop left it. *)
type cut = { n_bases : int; pairs : int; v6_pairs : int; next_v4 : int; next_v6 : int64 }

(* The generation loop, run once to the largest of [targets] (ascending
   and distinct). A run to a single target [m] stops at the first
   iteration that reaches [pair_count >= m] — exactly where this loop
   records [m]'s cut — and nothing before that point reads the target,
   so every cut is the state a run to its own target ends in. Returns
   the bases in generation order, each AS's adoption style and the
   cuts, one per target. *)
let generate_bases params rng targets =
  let rng_addr = Rng.split rng "alloc" in
  let al = fresh_alloc () in
  let bases = ref [] in
  let n_bases = ref 0 in
  let pair_count = ref 0 in
  let v6_pairs = ref 0 in
  let next_asn = ref 0 in
  let current_asn = ref None in
  let current_style = ref Not_adopter in
  let style_of = Asnum.Tbl.create 4096 in
  let cut () =
    { n_bases = !n_bases;
      pairs = !pair_count;
      v6_pairs = !v6_pairs;
      next_v4 = al.next_v4;
      next_v6 = al.next_v6 }
  in
  let cuts = Array.make (Array.length targets) (cut ()) in
  let reached = ref 0 in
  let record_cuts () =
    while !reached < Array.length targets && !pair_count >= targets.(!reached) do
      cuts.(!reached) <- cut ();
      incr reached
    done
  in
  let new_as () =
    incr next_asn;
    let a = Asnum.of_int (64_000 + !next_asn) in
    let style =
      if Rng.bernoulli rng params.adopter_fraction then
        Rng.weighted rng
          [ (params.w_flat, Flat); (params.w_cover, Cover); (params.w_legacy, Legacy) ]
      else Not_adopter
    in
    Asnum.Tbl.replace style_of a style;
    current_asn := Some a;
    current_style := style;
    (a, style)
  in
  let p1, p2, p3 = params.p_chain in
  let pc1, pc2 = params.p_cover_chain in
  record_cuts ();
  while !reached < Array.length targets do
    let asn, style =
      match !current_asn with
      | Some a when not (Rng.bernoulli rng params.new_as_probability) -> (a, !current_style)
      | Some _ | None -> new_as ()
    in
    let is_v6 = Rng.bernoulli rng params.v6_share in
    let len =
      match style, is_v6 with
      | (Cover | Legacy), false -> Rng.weighted rng v4_cover_lengths
      | (Cover | Legacy), true -> Rng.weighted rng v6_cover_lengths
      | (Not_adopter | Flat), false -> Rng.weighted rng v4_base_lengths
      | (Not_adopter | Flat), true -> Rng.weighted rng v6_base_lengths
    in
    let prefix = if is_v6 then alloc_v6 al len else alloc_v4 al (min len 24) in
    let cap = depth_cap prefix in
    let room = cap - Pfx.length prefix in
    let children, cover_max_len, chain_depth =
      match style with
      | Cover | Legacy ->
        (* Cover-style bases: minimal (complete chain, exact maxLength)
           with probability 1 - p_slack, else a non-minimal slack
           cover over scattered children. *)
        if room > 0 && not (Rng.bernoulli rng params.p_slack) then begin
          let d = if room >= 2 && Rng.bernoulli rng (pc2 /. (pc1 +. pc2)) then 2 else 1 in
          let d = min d room in
          (chain_children prefix d, Some (Pfx.length prefix + d), d)
        end
        else begin
          let k = heavy_tail_count rng_addr params.cover_children_mean in
          let children = if room > 0 then scattered_children rng prefix k else [] in
          let max_len = if room > 0 then cap else Pfx.length prefix in
          (children, (if max_len > Pfx.length prefix then Some max_len else None), 0)
        end
      | Not_adopter | Flat ->
        let u = Rng.float rng in
        if room >= 1 && u < p1 then (chain_children prefix 1, None, 1)
        else if room >= 2 && u < p1 +. p2 then (chain_children prefix 2, None, 2)
        else if room >= 3 && u < p1 +. p2 +. p3 then (chain_children prefix 3, None, 3)
        else if room >= 1 && u < p1 +. p2 +. p3 +. params.p_incomplete then
          (scattered_children rng prefix (1 + Rng.int rng 2), None, 0)
        else ([], None, 0)
    in
    let pairs = 1 + List.length children in
    pair_count := !pair_count + pairs;
    if is_v6 then v6_pairs := !v6_pairs + pairs;
    bases := { prefix; asn; children; cover_max_len; chain_depth } :: !bases;
    incr n_bases;
    record_cuts ()
  done;
  (Array.of_list (List.rev !bases), style_of, cuts)

(* The snapshot a run to [params.pairs_target] produces, built from the
   [cut.n_bases] first bases. The ROA corpus draws its stale entries
   from its own copy of the allocator and from [Rng.split rng "stale"],
   which derives from [rng]'s seed alone, so every cut gets the stream
   a run of its own would. Reads [bases], [style_of] and [rng] without
   changing them, so the cuts build in any order. *)
let build params ~seed rng style_of bases cut =
  (* The table is built once the pair counts are known, so each family
     is sized by its own count and no column grows. Pairs go in in
     generation order: each base, then its children. *)
  let table = Bgp_table.create ~v4:(cut.pairs - cut.v6_pairs) ~v6:cut.v6_pairs () in
  for i = 0 to cut.n_bases - 1 do
    let b = bases.(i) in
    Bgp_table.add table b.prefix b.asn;
    List.iter (fun c -> Bgp_table.add table c b.asn) b.children
  done;
  (* --- ROA corpus --- *)
  let al = { next_v4 = cut.next_v4; next_v6 = cut.next_v6 } in
  (* Filled newest base first, as a run of its own fills it: [by_as]'s
     iteration order, which fixes the order of the ROAs, depends on
     the order of its inserts. *)
  let by_as = Asnum.Tbl.create 4096 in
  for i = cut.n_bases - 1 downto 0 do
    let b = bases.(i) in
    let l = match Asnum.Tbl.find_opt by_as b.asn with Some l -> l | None -> [] in
    Asnum.Tbl.replace by_as b.asn (b :: l)
  done;
  let roas = ref [] in
  let group_entries asn entries =
    (* Split a long entry list into ROAs of roughly group_size. *)
    let rec go acc cur n = function
      | [] -> if cur = [] then acc else List.rev cur :: acc
      | e :: rest ->
        if n >= params.roa_group_size then go (List.rev cur :: acc) [ e ] 1 rest
        else go acc (e :: cur) (n + 1) rest
    in
    List.iter
      (fun group -> roas := Roa.make_exn asn group :: !roas)
      (go [] [] 0 entries)
  in
  let stale_rng = Rng.split rng "stale" in
  let flat_entries bs =
    List.concat_map
      (fun b ->
        let own = { Roa.prefix = b.prefix; max_len = None } in
        let kids = List.map (fun c -> { Roa.prefix = c; max_len = None }) b.children in
        let stale =
          (* A ROA for space the AS holds but no longer announces. *)
          if Rng.bernoulli stale_rng params.stale_entry_probability then begin
            let p =
              match Pfx.afi b.prefix with
              | Pfx.Afi_v4 -> alloc_v4 al (min 24 (Pfx.length b.prefix))
              | Pfx.Afi_v6 -> alloc_v6 al (min 48 (Pfx.length b.prefix))
            in
            [ { Roa.prefix = p; max_len = None } ]
          end
          else []
        in
        (own :: kids) @ stale)
      bs
  in
  let cover_entries bs =
    List.map
      (fun b ->
        match b.cover_max_len with
        | Some m -> { Roa.prefix = b.prefix; max_len = Some m }
        | None -> { Roa.prefix = b.prefix; max_len = None })
      bs
  in
  Asnum.Tbl.iter
    (fun asn bs ->
      match Asnum.Tbl.find_opt style_of asn with
      | None | Some Not_adopter -> ()
      | Some Flat -> group_entries asn (flat_entries bs)
      | Some Cover -> group_entries asn (cover_entries bs)
      | Some Legacy ->
        (* The cover ROA plus the redundant legacy enumeration. *)
        group_entries asn (cover_entries bs);
        group_entries asn (flat_entries bs))
    by_as;
  { params; seed; table; roas = !roas }

(* One snapshot per target, in [targets]' order. *)
let build_series params ~seed targets =
  let rng = Rng.create seed in
  let ascending = Array.of_list (List.sort_uniq Int.compare (Array.to_list targets)) in
  let bases, style_of, cuts = generate_bases params rng ascending in
  let cut_of target =
    let rec find i = if Int.equal ascending.(i) target then cuts.(i) else find (i + 1) in
    find 0
  in
  Array.map
    (fun target ->
      build { params with pairs_target = target } ~seed rng style_of bases (cut_of target))
    targets

let series ?(params = default_params) ~seed ~targets () =
  Array.to_list (build_series params ~seed (Array.of_list targets))

let generate ?(params = default_params) ~seed () =
  (build_series params ~seed [| params.pairs_target |]).(0)

let vrps t = Rpki.Scan_roas.vrps_of_roas t.roas

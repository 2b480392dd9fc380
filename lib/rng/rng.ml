(* The state lives in an 8-byte buffer rather than a [mutable int64]
   field: storing to such a field boxes a fresh int64 on every draw,
   while [Bytes.get_int64_ne]/[set_int64_ne] stay unboxed once [mix64]
   and [int64] are inlined into the draw functions below (and [float]
   into [bernoulli]). *)
type t = { base : int64; state : Bytes.t }

let golden_gamma = 0x9e3779b97f4a7c15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let state = Bytes.create 8 in
  Bytes.set_int64_ne state 0 s;
  { base = s; state }

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_ne t.state 0) golden_gamma in
  Bytes.set_int64_ne t.state 0 s;
  mix64 s

(* Children derive from the parent's creation-time base, not its
   position, so a child stream doesn't shift when the parent draws
   more numbers. *)
let split t label =
  (* Hashtbl.hash on a [string] label: strings are a concrete type with
     no compare/hash of their own here, and the stdlib string hash is
     deterministic across runs — which stream derivation requires. *)
  let h = Int64.of_int ((Hashtbl.hash [@lint.poly_ok]) label) in
  of_state (mix64 (Int64.logxor t.base (Int64.mul h golden_gamma)))

(* R10 waiver: the invalid_arg below is a static misuse guard (bound
   is never data-dependent in this tree; netsim call sites clamp their
   ranges), so it cannot fire on an event-handler path. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Plain modulo: bounds are tiny relative to 2^63, so the bias is
     negligible for simulation purposes. *)
  Int64.to_int (Int64.rem (Int64.logand (int64 t) Int64.max_int) (Int64.of_int bound))
[@@lint.raise_ok]

(* R10 waiver: same static-misuse guard as [int] — callers establish
   lo <= hi (see Link.chunk_out's clamp). *)
let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)
[@@lint.raise_ok]

let bytes t n =
  if n < 0 then invalid_arg "Rng.bytes: negative length";
  String.init n (fun _ -> Char.chr (int t 256))

let[@inline] float t =
  Int64.to_float (Int64.shift_right_logical (int64 t) 11) *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (int64 t) 1L = 1L
let bernoulli t p = float t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0, 1]";
  let rec go n = if bernoulli t p || n > 1_000_000 then n else go (n + 1) in
  go 0

let weighted t l =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 l in
  if total <= 0 then invalid_arg "Rng.weighted: weights must sum to a positive value";
  let x = int t total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.weighted: unreachable"
    | (w, v) :: rest -> if x < acc + w then v else go (acc + w) rest
  in
  go 0 l

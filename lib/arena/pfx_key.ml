module Pfx = Netaddr.Pfx
module Ipv4 = Netaddr.Ipv4
module Ipv6 = Netaddr.Ipv6

(* A [Pfx.t] decomposed into four 32-bit chunks held in immediate ints,
   most-significant chunk first, plus the prefix length. IPv4 prefixes
   occupy chunk 0 only (chunks 1-3 are zero); IPv6 prefixes spread
   their 128 bits across all four. Every operation below is pure
   integer arithmetic on immediates — no Int64 boxing, no records —
   which is what lets the flat trie walk prefixes without touching the
   heap. *)

let mask32 = 0xffff_ffff

let clz32 x =
  if x = 0 then 32
  else begin
    let n = ref 0 and x = ref x in
    if !x land 0xffff0000 = 0 then begin n := !n + 16; x := !x lsl 16 end;
    if !x land 0xff000000 = 0 then begin n := !n + 8; x := !x lsl 8 end;
    if !x land 0xf0000000 = 0 then begin n := !n + 4; x := !x lsl 4 end;
    if !x land 0xc0000000 = 0 then begin n := !n + 2; x := !x lsl 2 end;
    if !x land 0x80000000 = 0 then incr n;
    !n
  end

(* Top [n] bits of a 32-bit word, clamped: n <= 0 gives 0 (compare
   nothing), n >= 32 gives the full mask. The clamping is what lets
   [covers] test all four chunks unconditionally. *)
let hi_mask n = if n <= 0 then 0 else if n >= 32 then mask32 else mask32 lxor (mask32 lsr n)

let int64_hi32 x = Int64.to_int (Int64.shift_right_logical x 32) land mask32
let int64_lo32 x = Int64.to_int x land mask32

let c0 = function
  | Pfx.V4 q -> Ipv4.to_int (Ipv4.Prefix.network q)
  | Pfx.V6 q -> int64_hi32 (Ipv6.high_bits (Ipv6.Prefix.network q))

let c1 = function
  | Pfx.V4 _ -> 0
  | Pfx.V6 q -> int64_lo32 (Ipv6.high_bits (Ipv6.Prefix.network q))

let c2 = function
  | Pfx.V4 _ -> 0
  | Pfx.V6 q -> int64_hi32 (Ipv6.low_bits (Ipv6.Prefix.network q))

let c3 = function
  | Pfx.V4 _ -> 0
  | Pfx.V6 q -> int64_lo32 (Ipv6.low_bits (Ipv6.Prefix.network q))

let to_pfx family ~c0 ~c1 ~c2 ~c3 ~len =
  match family with
  | Pfx.Afi_v4 -> Pfx.v4 (Ipv4.Prefix.make (Ipv4.of_int32_bits c0) len)
  | Pfx.Afi_v6 ->
    let hi = Int64.logor (Int64.shift_left (Int64.of_int c0) 32) (Int64.of_int c1) in
    let lo = Int64.logor (Int64.shift_left (Int64.of_int c2) 32) (Int64.of_int c3) in
    Pfx.v6 (Ipv6.Prefix.make (Ipv6.make hi lo) len)

(* Bit [i] of the chunked address, bit 0 being the most significant —
   the same convention as [Pfx.bit]. *)
let bit c0 c1 c2 c3 i =
  let c = match i lsr 5 with 0 -> c0 | 1 -> c1 | 2 -> c2 | _ -> c3 in
  (c lsr (31 - (i land 31))) land 1 = 1

(* Longest common prefix of two chunked keys, capped at the shorter
   length — the branch-point primitive, mirroring
   [Pfx.common_length]. *)
let common_length a0 a1 a2 a3 la b0 b1 b2 b3 lb =
  let m = if la < lb then la else lb in
  let x0 = a0 lxor b0 in
  if x0 <> 0 then (let d = clz32 x0 in if d < m then d else m)
  else
    let x1 = a1 lxor b1 in
    if x1 <> 0 then (let d = 32 + clz32 x1 in if d < m then d else m)
    else
      let x2 = a2 lxor b2 in
      if x2 <> 0 then (let d = 64 + clz32 x2 in if d < m then d else m)
      else
        let x3 = a3 lxor b3 in
        if x3 <> 0 then (let d = 96 + clz32 x3 in if d < m then d else m)
        else m

(* [covers b lb a la]: the length-[lb] prefix (b0..b3) covers the
   length-[la] prefix (a0..a3). Both keys must be canonical (host bits
   zero), which every key built by [c0]..[c3] is. Reflexive. *)
let covers b0 b1 b2 b3 lb a0 a1 a2 a3 la =
  lb <= la
  && (a0 lxor b0) land hi_mask lb = 0
  && (a1 lxor b1) land hi_mask (lb - 32) = 0
  && (a2 lxor b2) land hi_mask (lb - 64) = 0
  && (a3 lxor b3) land hi_mask (lb - 96) = 0

let equal_key a0 a1 a2 a3 la b0 b1 b2 b3 lb =
  la = lb && a0 = b0 && a1 = b1 && a2 = b2 && a3 = b3

(* Lexicographic (address, then length) order on chunked keys: the
   same order as [Pfx.compare] within one family. *)
let compare_key a0 a1 a2 a3 la b0 b1 b2 b3 lb =
  let c = Int.compare a0 b0 in
  if c <> 0 then c
  else
    let c = Int.compare a1 b1 in
    if c <> 0 then c
    else
      let c = Int.compare a2 b2 in
      if c <> 0 then c
      else
        let c = Int.compare a3 b3 in
        if c <> 0 then c else Int.compare la lb

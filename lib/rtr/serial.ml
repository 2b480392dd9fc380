(* RFC 1982 §3.2, specialised to SERIAL_BITS = 32. The signed value of
   the two's-complement difference [b - a] says on which half of the
   circle [b] sits relative to [a]: positive means [a] precedes [b],
   negative means [b] precedes [a]. The half-circle point (difference
   exactly [Int32.min_int]) is undefined in the RFC; its sign is
   negative here, so [compare a b < 0] — a fixed, documented choice. *)

let equal = Int32.equal

let compare a b =
  if Int32.equal a b then 0
  else if Int32.compare (Int32.sub b a) 0l > 0 then -1
  else 1

let gt a b = compare a b > 0
let leq a b = compare a b <= 0

let succ s = Int32.add s 1l
let add s n = Int32.add s (Int32.of_int n)

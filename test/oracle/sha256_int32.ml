(* SHA-256 per FIPS 180-4 on boxed Int32 arrays: the differential
   oracle for Hashcrypto.Sha256 (test_crypto.ml). It is written the
   plain way the library's kernel is not: the state and the 64-word
   message schedule are int32 arrays, the rounds a loop over refs, and
   the padding a separate string, so the two share no code path, only
   the specification. It boxes on every array access and allocates
   hundreds of words per block, which a test oracle can afford. *)

let k =
  [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
     0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
     0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
     0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
     0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
     0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
     0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
     0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
     0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
     0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
     0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

type ctx = {
  h : int32 array; (* 8 state words *)
  buf : bytes; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int64; (* total message bytes *)
  w : int32 array; (* 64-entry message schedule, reused across blocks *)
}

let init () =
  {
    h =
      [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl; 0x9b05688cl;
         0x1f83d9abl; 0x5be0cd19l |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0L;
    w = Array.make 64 0l;
  }

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
let ( +% ) = Int32.add

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let b j = Int32.of_int (Char.code (Bytes.get block (off + (i * 4) + j))) in
    w.(i) <-
      Int32.logor
        (Int32.shift_left (b 0) 24)
        (Int32.logor (Int32.shift_left (b 1) 16) (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))
  done;
  for i = 16 to 63 do
    let s0 =
      Int32.logxor (rotr w.(i - 15) 7) (Int32.logxor (rotr w.(i - 15) 18) (Int32.shift_right_logical w.(i - 15) 3))
    in
    let s1 =
      Int32.logxor (rotr w.(i - 2) 17) (Int32.logxor (rotr w.(i - 2) 19) (Int32.shift_right_logical w.(i - 2) 10))
    in
    w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
  done;
  let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2) and d = ref ctx.h.(3) in
  let e = ref ctx.h.(4) and f = ref ctx.h.(5) and g = ref ctx.h.(6) and h = ref ctx.h.(7) in
  for i = 0 to 63 do
    let s1 = Int32.logxor (rotr !e 6) (Int32.logxor (rotr !e 11) (rotr !e 25)) in
    let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
    let t1 = !h +% s1 +% ch +% k.(i) +% w.(i) in
    let s0 = Int32.logxor (rotr !a 2) (Int32.logxor (rotr !a 13) (rotr !a 22)) in
    let maj =
      Int32.logxor (Int32.logand !a !b) (Int32.logxor (Int32.logand !a !c) (Int32.logand !b !c))
    in
    let t2 = s0 +% maj in
    h := !g;
    g := !f;
    f := !e;
    e := !d +% t1;
    d := !c;
    c := !b;
    b := !a;
    a := t1 +% t2
  done;
  ctx.h.(0) <- ctx.h.(0) +% !a;
  ctx.h.(1) <- ctx.h.(1) +% !b;
  ctx.h.(2) <- ctx.h.(2) +% !c;
  ctx.h.(3) <- ctx.h.(3) +% !d;
  ctx.h.(4) <- ctx.h.(4) +% !e;
  ctx.h.(5) <- ctx.h.(5) +% !f;
  ctx.h.(6) <- ctx.h.(6) +% !g;
  ctx.h.(7) <- ctx.h.(7) +% !h

let feed_bytes ctx b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then invalid_arg "Sha256.feed_bytes";
  ctx.total <- Int64.add ctx.total (Int64.of_int len);
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled block buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit b !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx b !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit b !pos ctx.buf ctx.buf_len !remaining;
    ctx.buf_len <- ctx.buf_len + !remaining
  end

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let get ctx =
  let bitlen = Int64.mul ctx.total 8L in
  (* Padding: 0x80, zeros to 56 mod 64, then the 64-bit length. *)
  let pad_len =
    let r = (ctx.buf_len + 1 + 8) mod 64 in
    if r = 0 then 1 else 1 + (64 - r)
  in
  let pad = Bytes.make (pad_len + 8) '\x00' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad (pad_len + i) (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bitlen ((7 - i) * 8)) 0xffL)))
  done;
  (* Feed the padding without touching the total counter. *)
  let p = ref 0 and remaining = ref (Bytes.length pad) in
  while !remaining > 0 do
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit pad !p ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    p := !p + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  done;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (i * 4) (Char.chr (Int32.to_int (Int32.shift_right_logical v 24) land 0xff));
    Bytes.set out ((i * 4) + 1) (Char.chr (Int32.to_int (Int32.shift_right_logical v 16) land 0xff));
    Bytes.set out ((i * 4) + 2) (Char.chr (Int32.to_int (Int32.shift_right_logical v 8) land 0xff));
    Bytes.set out ((i * 4) + 3) (Char.chr (Int32.to_int v land 0xff))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  get ctx

let digest_concat chunks =
  let ctx = init () in
  List.iter (feed ctx) chunks;
  get ctx

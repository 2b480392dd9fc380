(* SHA-256 per FIPS 180-4.

   The block function is one straight-line function: the 64 schedule
   words, the eight working variables of each of the 64 rounds and the
   round constants are let-bound Int32 values and literals. ocamlopt
   keeps a let-bound Int32 unboxed when every use is Int32 arithmetic,
   so each step is one 32-bit register operation (or a stack slot when
   the registers run out) with no boxing, no tag fix-up and no mask,
   and a block allocates nothing. The helpers below are [@inline] for
   that reason: an Int32 passed to a call ocamlopt does not inline, held
   in an array or captured by a closure is boxed on every use.

   The state is the eight words as 32 big-endian bytes, which is also
   the digest, so [get] copies it out and [feed_digest] feeds it on. *)

let[@inline] rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))
let[@inline] xor3 x y z = Int32.logxor x (Int32.logxor y z)

(* Σ0 and Σ1 of the rounds, σ0 and σ1 of the message schedule. *)
let[@inline] sum0 x = xor3 (rotr x 2) (rotr x 13) (rotr x 22)
let[@inline] sum1 x = xor3 (rotr x 6) (rotr x 11) (rotr x 25)
let[@inline] sigma0 x = xor3 (rotr x 7) (rotr x 18) (Int32.shift_right_logical x 3)
let[@inline] sigma1 x = xor3 (rotr x 17) (rotr x 19) (Int32.shift_right_logical x 10)

(* W[i] from W[i-16], W[i-15], W[i-7] and W[i-2]. *)
let[@inline] schedule w16 w15 w7 w2 = Int32.add (Int32.add w16 (sigma0 w15)) (Int32.add w7 (sigma1 w2))

(* A round's T1 = h + Σ1(e) + Ch(e, f, g) + K[i] + W[i], and its
   T2 = Σ0(a) + Maj(a, b, c). *)
let[@inline] t1 e f g h k w =
  let ch = Int32.logxor g (Int32.logand e (Int32.logxor f g)) in
  Int32.add (Int32.add h (sum1 e)) (Int32.add ch (Int32.add k w))

let[@inline] t2 a b c =
  let maj = Int32.logor (Int32.logand a b) (Int32.logand c (Int32.logor a b)) in
  Int32.add (sum0 a) maj

(* One 64-byte block of [block] from [off] into the state [st]. The
   eight working variables take turns: round i adds T1 to the variable
   holding d and makes the one holding h the new a, so the names come
   back to their roles every eight rounds, and round 63 leaves a..h in
   place for the state update. *)
let compress st block off =
  let w00 = Bytes.get_int32_be block off in
  let w01 = Bytes.get_int32_be block (off + 4) in
  let w02 = Bytes.get_int32_be block (off + 8) in
  let w03 = Bytes.get_int32_be block (off + 12) in
  let w04 = Bytes.get_int32_be block (off + 16) in
  let w05 = Bytes.get_int32_be block (off + 20) in
  let w06 = Bytes.get_int32_be block (off + 24) in
  let w07 = Bytes.get_int32_be block (off + 28) in
  let w08 = Bytes.get_int32_be block (off + 32) in
  let w09 = Bytes.get_int32_be block (off + 36) in
  let w10 = Bytes.get_int32_be block (off + 40) in
  let w11 = Bytes.get_int32_be block (off + 44) in
  let w12 = Bytes.get_int32_be block (off + 48) in
  let w13 = Bytes.get_int32_be block (off + 52) in
  let w14 = Bytes.get_int32_be block (off + 56) in
  let w15 = Bytes.get_int32_be block (off + 60) in
  let a = Bytes.get_int32_be st 0 and b = Bytes.get_int32_be st 4 in
  let c = Bytes.get_int32_be st 8 and d = Bytes.get_int32_be st 12 in
  let e = Bytes.get_int32_be st 16 and f = Bytes.get_int32_be st 20 in
  let g = Bytes.get_int32_be st 24 and h = Bytes.get_int32_be st 28 in
  let t = t1 e f g h 0x428a2f98l w00 in
  let d = Int32.add d t and h = Int32.add t (t2 a b c) in
  let t = t1 d e f g 0x71374491l w01 in
  let c = Int32.add c t and g = Int32.add t (t2 h a b) in
  let t = t1 c d e f 0xb5c0fbcfl w02 in
  let b = Int32.add b t and f = Int32.add t (t2 g h a) in
  let t = t1 b c d e 0xe9b5dba5l w03 in
  let a = Int32.add a t and e = Int32.add t (t2 f g h) in
  let t = t1 a b c d 0x3956c25bl w04 in
  let h = Int32.add h t and d = Int32.add t (t2 e f g) in
  let t = t1 h a b c 0x59f111f1l w05 in
  let g = Int32.add g t and c = Int32.add t (t2 d e f) in
  let t = t1 g h a b 0x923f82a4l w06 in
  let f = Int32.add f t and b = Int32.add t (t2 c d e) in
  let t = t1 f g h a 0xab1c5ed5l w07 in
  let e = Int32.add e t and a = Int32.add t (t2 b c d) in
  let t = t1 e f g h 0xd807aa98l w08 in
  let d = Int32.add d t and h = Int32.add t (t2 a b c) in
  let t = t1 d e f g 0x12835b01l w09 in
  let c = Int32.add c t and g = Int32.add t (t2 h a b) in
  let t = t1 c d e f 0x243185bel w10 in
  let b = Int32.add b t and f = Int32.add t (t2 g h a) in
  let t = t1 b c d e 0x550c7dc3l w11 in
  let a = Int32.add a t and e = Int32.add t (t2 f g h) in
  let t = t1 a b c d 0x72be5d74l w12 in
  let h = Int32.add h t and d = Int32.add t (t2 e f g) in
  let t = t1 h a b c 0x80deb1fel w13 in
  let g = Int32.add g t and c = Int32.add t (t2 d e f) in
  let t = t1 g h a b 0x9bdc06a7l w14 in
  let f = Int32.add f t and b = Int32.add t (t2 c d e) in
  let t = t1 f g h a 0xc19bf174l w15 in
  let e = Int32.add e t and a = Int32.add t (t2 b c d) in
  let w16 = schedule w00 w01 w09 w14 in
  let t = t1 e f g h 0xe49b69c1l w16 in
  let d = Int32.add d t and h = Int32.add t (t2 a b c) in
  let w17 = schedule w01 w02 w10 w15 in
  let t = t1 d e f g 0xefbe4786l w17 in
  let c = Int32.add c t and g = Int32.add t (t2 h a b) in
  let w18 = schedule w02 w03 w11 w16 in
  let t = t1 c d e f 0x0fc19dc6l w18 in
  let b = Int32.add b t and f = Int32.add t (t2 g h a) in
  let w19 = schedule w03 w04 w12 w17 in
  let t = t1 b c d e 0x240ca1ccl w19 in
  let a = Int32.add a t and e = Int32.add t (t2 f g h) in
  let w20 = schedule w04 w05 w13 w18 in
  let t = t1 a b c d 0x2de92c6fl w20 in
  let h = Int32.add h t and d = Int32.add t (t2 e f g) in
  let w21 = schedule w05 w06 w14 w19 in
  let t = t1 h a b c 0x4a7484aal w21 in
  let g = Int32.add g t and c = Int32.add t (t2 d e f) in
  let w22 = schedule w06 w07 w15 w20 in
  let t = t1 g h a b 0x5cb0a9dcl w22 in
  let f = Int32.add f t and b = Int32.add t (t2 c d e) in
  let w23 = schedule w07 w08 w16 w21 in
  let t = t1 f g h a 0x76f988dal w23 in
  let e = Int32.add e t and a = Int32.add t (t2 b c d) in
  let w24 = schedule w08 w09 w17 w22 in
  let t = t1 e f g h 0x983e5152l w24 in
  let d = Int32.add d t and h = Int32.add t (t2 a b c) in
  let w25 = schedule w09 w10 w18 w23 in
  let t = t1 d e f g 0xa831c66dl w25 in
  let c = Int32.add c t and g = Int32.add t (t2 h a b) in
  let w26 = schedule w10 w11 w19 w24 in
  let t = t1 c d e f 0xb00327c8l w26 in
  let b = Int32.add b t and f = Int32.add t (t2 g h a) in
  let w27 = schedule w11 w12 w20 w25 in
  let t = t1 b c d e 0xbf597fc7l w27 in
  let a = Int32.add a t and e = Int32.add t (t2 f g h) in
  let w28 = schedule w12 w13 w21 w26 in
  let t = t1 a b c d 0xc6e00bf3l w28 in
  let h = Int32.add h t and d = Int32.add t (t2 e f g) in
  let w29 = schedule w13 w14 w22 w27 in
  let t = t1 h a b c 0xd5a79147l w29 in
  let g = Int32.add g t and c = Int32.add t (t2 d e f) in
  let w30 = schedule w14 w15 w23 w28 in
  let t = t1 g h a b 0x06ca6351l w30 in
  let f = Int32.add f t and b = Int32.add t (t2 c d e) in
  let w31 = schedule w15 w16 w24 w29 in
  let t = t1 f g h a 0x14292967l w31 in
  let e = Int32.add e t and a = Int32.add t (t2 b c d) in
  let w32 = schedule w16 w17 w25 w30 in
  let t = t1 e f g h 0x27b70a85l w32 in
  let d = Int32.add d t and h = Int32.add t (t2 a b c) in
  let w33 = schedule w17 w18 w26 w31 in
  let t = t1 d e f g 0x2e1b2138l w33 in
  let c = Int32.add c t and g = Int32.add t (t2 h a b) in
  let w34 = schedule w18 w19 w27 w32 in
  let t = t1 c d e f 0x4d2c6dfcl w34 in
  let b = Int32.add b t and f = Int32.add t (t2 g h a) in
  let w35 = schedule w19 w20 w28 w33 in
  let t = t1 b c d e 0x53380d13l w35 in
  let a = Int32.add a t and e = Int32.add t (t2 f g h) in
  let w36 = schedule w20 w21 w29 w34 in
  let t = t1 a b c d 0x650a7354l w36 in
  let h = Int32.add h t and d = Int32.add t (t2 e f g) in
  let w37 = schedule w21 w22 w30 w35 in
  let t = t1 h a b c 0x766a0abbl w37 in
  let g = Int32.add g t and c = Int32.add t (t2 d e f) in
  let w38 = schedule w22 w23 w31 w36 in
  let t = t1 g h a b 0x81c2c92el w38 in
  let f = Int32.add f t and b = Int32.add t (t2 c d e) in
  let w39 = schedule w23 w24 w32 w37 in
  let t = t1 f g h a 0x92722c85l w39 in
  let e = Int32.add e t and a = Int32.add t (t2 b c d) in
  let w40 = schedule w24 w25 w33 w38 in
  let t = t1 e f g h 0xa2bfe8a1l w40 in
  let d = Int32.add d t and h = Int32.add t (t2 a b c) in
  let w41 = schedule w25 w26 w34 w39 in
  let t = t1 d e f g 0xa81a664bl w41 in
  let c = Int32.add c t and g = Int32.add t (t2 h a b) in
  let w42 = schedule w26 w27 w35 w40 in
  let t = t1 c d e f 0xc24b8b70l w42 in
  let b = Int32.add b t and f = Int32.add t (t2 g h a) in
  let w43 = schedule w27 w28 w36 w41 in
  let t = t1 b c d e 0xc76c51a3l w43 in
  let a = Int32.add a t and e = Int32.add t (t2 f g h) in
  let w44 = schedule w28 w29 w37 w42 in
  let t = t1 a b c d 0xd192e819l w44 in
  let h = Int32.add h t and d = Int32.add t (t2 e f g) in
  let w45 = schedule w29 w30 w38 w43 in
  let t = t1 h a b c 0xd6990624l w45 in
  let g = Int32.add g t and c = Int32.add t (t2 d e f) in
  let w46 = schedule w30 w31 w39 w44 in
  let t = t1 g h a b 0xf40e3585l w46 in
  let f = Int32.add f t and b = Int32.add t (t2 c d e) in
  let w47 = schedule w31 w32 w40 w45 in
  let t = t1 f g h a 0x106aa070l w47 in
  let e = Int32.add e t and a = Int32.add t (t2 b c d) in
  let w48 = schedule w32 w33 w41 w46 in
  let t = t1 e f g h 0x19a4c116l w48 in
  let d = Int32.add d t and h = Int32.add t (t2 a b c) in
  let w49 = schedule w33 w34 w42 w47 in
  let t = t1 d e f g 0x1e376c08l w49 in
  let c = Int32.add c t and g = Int32.add t (t2 h a b) in
  let w50 = schedule w34 w35 w43 w48 in
  let t = t1 c d e f 0x2748774cl w50 in
  let b = Int32.add b t and f = Int32.add t (t2 g h a) in
  let w51 = schedule w35 w36 w44 w49 in
  let t = t1 b c d e 0x34b0bcb5l w51 in
  let a = Int32.add a t and e = Int32.add t (t2 f g h) in
  let w52 = schedule w36 w37 w45 w50 in
  let t = t1 a b c d 0x391c0cb3l w52 in
  let h = Int32.add h t and d = Int32.add t (t2 e f g) in
  let w53 = schedule w37 w38 w46 w51 in
  let t = t1 h a b c 0x4ed8aa4al w53 in
  let g = Int32.add g t and c = Int32.add t (t2 d e f) in
  let w54 = schedule w38 w39 w47 w52 in
  let t = t1 g h a b 0x5b9cca4fl w54 in
  let f = Int32.add f t and b = Int32.add t (t2 c d e) in
  let w55 = schedule w39 w40 w48 w53 in
  let t = t1 f g h a 0x682e6ff3l w55 in
  let e = Int32.add e t and a = Int32.add t (t2 b c d) in
  let w56 = schedule w40 w41 w49 w54 in
  let t = t1 e f g h 0x748f82eel w56 in
  let d = Int32.add d t and h = Int32.add t (t2 a b c) in
  let w57 = schedule w41 w42 w50 w55 in
  let t = t1 d e f g 0x78a5636fl w57 in
  let c = Int32.add c t and g = Int32.add t (t2 h a b) in
  let w58 = schedule w42 w43 w51 w56 in
  let t = t1 c d e f 0x84c87814l w58 in
  let b = Int32.add b t and f = Int32.add t (t2 g h a) in
  let w59 = schedule w43 w44 w52 w57 in
  let t = t1 b c d e 0x8cc70208l w59 in
  let a = Int32.add a t and e = Int32.add t (t2 f g h) in
  let w60 = schedule w44 w45 w53 w58 in
  let t = t1 a b c d 0x90befffal w60 in
  let h = Int32.add h t and d = Int32.add t (t2 e f g) in
  let w61 = schedule w45 w46 w54 w59 in
  let t = t1 h a b c 0xa4506cebl w61 in
  let g = Int32.add g t and c = Int32.add t (t2 d e f) in
  let w62 = schedule w46 w47 w55 w60 in
  let t = t1 g h a b 0xbef9a3f7l w62 in
  let f = Int32.add f t and b = Int32.add t (t2 c d e) in
  let w63 = schedule w47 w48 w56 w61 in
  let t = t1 f g h a 0xc67178f2l w63 in
  let e = Int32.add e t and a = Int32.add t (t2 b c d) in
  Bytes.set_int32_be st 0 (Int32.add (Bytes.get_int32_be st 0) a);
  Bytes.set_int32_be st 4 (Int32.add (Bytes.get_int32_be st 4) b);
  Bytes.set_int32_be st 8 (Int32.add (Bytes.get_int32_be st 8) c);
  Bytes.set_int32_be st 12 (Int32.add (Bytes.get_int32_be st 12) d);
  Bytes.set_int32_be st 16 (Int32.add (Bytes.get_int32_be st 16) e);
  Bytes.set_int32_be st 20 (Int32.add (Bytes.get_int32_be st 20) f);
  Bytes.set_int32_be st 24 (Int32.add (Bytes.get_int32_be st 24) g);
  Bytes.set_int32_be st 28 (Int32.add (Bytes.get_int32_be st 28) h)
  [@@hot]

(* The initial hash value, as state bytes. *)
let iv =
  "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\
   \x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

type ctx = {
  state : bytes; (* eight words, big-endian *)
  buf : bytes; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes *)
  one_state : bytes; (* [feed_digest]'s scratch state ... *)
  one_buf : bytes; (* ... and block buffer *)
}

let init () =
  { state = Bytes.of_string iv; buf = Bytes.create 64; buf_len = 0; total = 0;
    one_state = Bytes.create 32; one_buf = Bytes.create 64 }

(* Every whole block of [b] in [off, stop); returns where the rest
   starts. *)
let rec blocks st b off stop =
  if stop - off >= 64 then begin
    compress st b off;
    blocks st b (off + 64) stop
  end
  else off
  [@@hot]

let feed_bytes ctx b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Sha256.feed_bytes";
  ctx.total <- ctx.total + len;
  let stop = off + len in
  (* Top up a partially filled block buffer first. *)
  let off =
    if ctx.buf_len = 0 then off
    else begin
      let take = Int.min len (64 - ctx.buf_len) in
      Bytes.blit b off ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      if ctx.buf_len = 64 then begin
        compress ctx.state ctx.buf 0;
        ctx.buf_len <- 0
      end;
      off + take
    end
  in
  let off = blocks ctx.state b off stop in
  Bytes.blit b off ctx.buf ctx.buf_len (stop - off);
  ctx.buf_len <- ctx.buf_len + (stop - off)
  [@@hot]

let feed_substring ctx s ~off ~len = feed_bytes ctx (Bytes.unsafe_of_string s) ~off ~len
let feed ctx s = feed_substring ctx s ~off:0 ~len:(String.length s)

(* The last block of a [total]-byte message, whose last [n] bytes are
   in [buf], into [st], padded in [buf] itself: 0x80, zeros to 56 mod
   64, then the message length in bits as a 64-bit big-endian number. *)
let finish st buf n total =
  Bytes.set buf n '\x80';
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\x00';
    compress st buf 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\x00';
  Bytes.set_int32_be buf 56 (Int32.of_int (total lsr 29));
  Bytes.set_int32_be buf 60 (Int32.of_int (total lsl 3));
  compress st buf 0
  [@@hot]

let get ctx =
  finish ctx.state ctx.buf ctx.buf_len ctx.total;
  Bytes.sub_string ctx.state 0 32

let feed_digest ctx s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Sha256.feed_digest";
  let st = ctx.one_state and buf = ctx.one_buf in
  Bytes.blit_string iv 0 st 0 32;
  let stop = off + len in
  let rest = blocks st (Bytes.unsafe_of_string s) off stop in
  Bytes.blit_string s rest buf 0 (stop - rest);
  finish st buf (stop - rest) len;
  feed_bytes ctx st ~off:0 ~len:32
  [@@hot]

let digest s =
  let ctx = init () in
  feed ctx s;
  get ctx

let rec feed_all ctx = function
  | [] -> ()
  | chunk :: rest ->
    feed ctx chunk;
    feed_all ctx rest

let digest_concat chunks =
  let ctx = init () in
  feed_all ctx chunks;
  get ctx

let to_hex s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

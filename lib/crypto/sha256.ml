(* SHA-256 per FIPS 180-4 on native ints. Every 32-bit word (state,
   message schedule, working variables) is an OCaml int holding the
   word's value in [0, 2^32), so nothing is boxed and a block costs no
   allocation.

   Sums are taken in the native 63 bits and masked to 32 where the
   specification wraps. Because 2^32 divides 2^63, the mask gives the
   exact mod-2^32 sum even when a term carries junk above bit 31, so
   only the words that are produced (a, e, each schedule word and the
   state) are masked; a Σ or σ feeding a sum is left unmasked.

   A rotation reads a duplicated word: with xx = x lor (x lsl 32), bits
   32..62 of xx repeat bits 0..30 of x, so bits 0..31 of (xx lsr n) are
   rotr x n for every n in [1, 31]. One duplication serves all three
   rotations of a Σ or σ. *)

let m32 = 0xffff_ffff

(* Built once, when the module is initialised; the rounds only read it. *)
let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
     0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
     0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
     0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
     0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
     0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
     0xc67178f2 |]
  [@@lint.alloc_ok]

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
     0x5be0cd19 |]

(* [s.(0..63)] is the message schedule and [s.(64..71)] the eight state
   words: one array, so the round function's ten arguments (the array,
   the round number and a..h) all stay in registers. *)
let state = 64

type ctx = {
  s : int array;
  buf : bytes; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes *)
}

let init () =
  let s = Array.make (state + 8) 0 in
  Array.blit iv 0 s state 8;
  { s; buf = Bytes.create 64; buf_len = 0; total = 0 }

(* The 64 rounds over the working variables a..h, then the state
   update. *)
let rec rounds s i a b c d e f g h =
  if i < 64 then begin
    let aa = a lor (a lsl 32) and ee = e lor (e lsl 32) in
    let t1 =
      h
      + ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25))
      + (g lxor (e land (f lxor g)))
      + k.(i) + s.(i)
    in
    let t2 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) + ((a land b) lor (c land (a lor b))) in
    rounds s (i + 1) ((t1 + t2) land m32) a b c ((d + t1) land m32) e f g
  end
  else begin
    s.(state) <- (s.(state) + a) land m32;
    s.(state + 1) <- (s.(state + 1) + b) land m32;
    s.(state + 2) <- (s.(state + 2) + c) land m32;
    s.(state + 3) <- (s.(state + 3) + d) land m32;
    s.(state + 4) <- (s.(state + 4) + e) land m32;
    s.(state + 5) <- (s.(state + 5) + f) land m32;
    s.(state + 6) <- (s.(state + 6) + g) land m32;
    s.(state + 7) <- (s.(state + 7) + h) land m32
  end
  [@@hot]

(* One 64-byte block of [block] from [off] into the state. *)
let compress s block off =
  for i = 0 to 15 do
    s.(i) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land m32
  done;
  for i = 16 to 63 do
    let x = s.(i - 15) and y = s.(i - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    s.(i) <- (s.(i - 16) + s0 + s.(i - 7) + s1) land m32
  done;
  rounds s 0 s.(state) s.(state + 1) s.(state + 2) s.(state + 3) s.(state + 4) s.(state + 5)
    s.(state + 6) s.(state + 7)
  [@@hot]

(* Every whole block of [b] in [off, stop); returns where the rest
   starts. *)
let rec blocks s b off stop =
  if stop - off >= 64 then begin
    compress s b off;
    blocks s b (off + 64) stop
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
        compress ctx.s ctx.buf 0;
        ctx.buf_len <- 0
      end;
      off + take
    end
  in
  let off = blocks ctx.s b off stop in
  Bytes.blit b off ctx.buf ctx.buf_len (stop - off);
  ctx.buf_len <- ctx.buf_len + (stop - off)
  [@@hot]

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let get ctx =
  let s = ctx.s and buf = ctx.buf and n = ctx.buf_len in
  (* Padding, in the block buffer itself: 0x80, zeros to 56 mod 64,
     then the message length in bits as a 64-bit big-endian number. *)
  Bytes.set buf n '\x80';
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\x00';
    compress s buf 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\x00';
  Bytes.set_int32_be buf 56 (Int32.of_int (ctx.total lsr 29));
  Bytes.set_int32_be buf 60 (Int32.of_int (ctx.total lsl 3));
  compress s buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int s.(state + i))
  done;
  Bytes.unsafe_to_string out

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

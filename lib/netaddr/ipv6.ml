type t = { hi : int64; lo : int64 }

let bits = 128
let zero = { hi = 0L; lo = 0L }
let make hi lo = { hi; lo }
let high_bits a = a.hi
let low_bits a = a.lo

let of_groups g =
  if Array.length g <> 8 then invalid_arg "Ipv6.of_groups: need 8 groups";
  let half off =
    let v = ref 0L in
    for i = 0 to 3 do
      v := Int64.logor (Int64.shift_left !v 16) (Int64.of_int (g.(off + i) land 0xffff))
    done;
    !v
  in
  { hi = half 0; lo = half 4 }

let to_groups a =
  let g = Array.make 8 0 in
  for i = 0 to 3 do
    g.(i) <- Int64.to_int (Int64.logand (Int64.shift_right_logical a.hi ((3 - i) * 16)) 0xffffL);
    g.(4 + i) <- Int64.to_int (Int64.logand (Int64.shift_right_logical a.lo ((3 - i) * 16)) 0xffffL)
  done;
  g

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* Split on ':' into raw tokens, then expand a single "::" gap. An
   embedded IPv4 tail ("::ffff:1.2.3.4") contributes two groups. *)
let of_string s =
  let err = Error (Printf.sprintf "invalid IPv6 address %S" s) in
  let n = String.length s in
  if n < 2 then err
  else begin
    (* Locate "::" if present. *)
    let dcolon = ref None in
    let i = ref 0 in
    (try
       while !i < n - 1 do
         if s.[!i] = ':' && s.[!i + 1] = ':' then begin
           if !dcolon <> None then raise Exit;
           dcolon := Some !i;
           i := !i + 2
         end
         else incr i
       done
     with Exit -> dcolon := Some (-1));
    if !dcolon = Some (-1) then err (* two "::" *)
    else begin
      let parse_side str =
        (* Parse a ':'-separated list of hex groups, possibly ending with a
           dotted quad. Returns the group list or None. *)
        if str = "" then Some []
        else
          let parts = String.split_on_char ':' str in
          let rec go acc = function
            | [] -> Some (List.rev acc)
            | [ last ] when String.contains last '.' ->
              (match Ipv4.of_string last with
               | Ok v4 ->
                 let v = Ipv4.to_int v4 in
                 Some (List.rev ((v land 0xffff) :: ((v lsr 16) land 0xffff) :: acc))
               | Error _ -> None)
            | p :: rest ->
              let len = String.length p in
              if len = 0 || len > 4 then None
              else
                let rec hex i acc =
                  if i = len then Some acc
                  else
                    match hex_digit p.[i] with
                    | Some d -> hex (i + 1) ((acc lsl 4) lor d)
                    | None -> None
                in
                (match hex 0 0 with
                 | Some v -> go (v :: acc) rest
                 | None -> None)
          in
          go [] parts
      in
      match !dcolon with
      | Some pos ->
        let left = String.sub s 0 pos in
        let right = String.sub s (pos + 2) (n - pos - 2) in
        (match parse_side left, parse_side right with
         | Some l, Some r ->
           let gap = 8 - List.length l - List.length r in
           if gap < 1 then err
           else
             let groups = l @ List.init gap (fun _ -> 0) @ r in
             Ok (of_groups (Array.of_list groups))
         | _ -> err)
      | None ->
        (match parse_side s with
         | Some g when List.length g = 8 -> Ok (of_groups (Array.of_list g))
         | _ -> err)
    end
  end

(* RFC 5952: compress the longest run of >= 2 zero groups, leftmost wins. *)
let to_string a =
  let g = to_groups a in
  let best_start = ref (-1) and best_len = ref 0 in
  let cur_start = ref (-1) and cur_len = ref 0 in
  for i = 0 to 7 do
    if g.(i) = 0 then begin
      if !cur_start < 0 then cur_start := i;
      incr cur_len;
      if !cur_len > !best_len then begin
        best_len := !cur_len;
        best_start := !cur_start
      end
    end
    else begin
      cur_start := -1;
      cur_len := 0
    end
  done;
  let buf = Buffer.create 40 in
  if !best_len >= 2 then begin
    for i = 0 to !best_start - 1 do
      if i > 0 then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" g.(i))
    done;
    Buffer.add_string buf "::";
    for i = !best_start + !best_len to 7 do
      if i > !best_start + !best_len then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" g.(i))
    done
  end
  else
    for i = 0 to 7 do
      if i > 0 then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" g.(i))
    done;
  Buffer.contents buf

let compare a b =
  (* Unsigned comparison of the 128-bit value. *)
  let c = Int64.unsigned_compare a.hi b.hi in
  if c <> 0 then c else Int64.unsigned_compare a.lo b.lo

let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo
let pp ppf a = Format.pp_print_string ppf (to_string a)
  [@@lint.test_only "alcotest printer: Testutil.ipv6"]

let bit a i =
  if i < 0 || i >= bits then invalid_arg "Ipv6.bit: index out of range";
  if i < 64 then Int64.logand (Int64.shift_right_logical a.hi (63 - i)) 1L = 1L
  else Int64.logand (Int64.shift_right_logical a.lo (127 - i)) 1L = 1L

let set_bit a i v =
  if i < 0 || i >= bits then invalid_arg "Ipv6.set_bit: index out of range";
  if i < 64 then
    let m = Int64.shift_left 1L (63 - i) in
    { a with hi = (if v then Int64.logor a.hi m else Int64.logand a.hi (Int64.lognot m)) }
  else
    let m = Int64.shift_left 1L (127 - i) in
    { a with lo = (if v then Int64.logor a.lo m else Int64.logand a.lo (Int64.lognot m)) }

(* Mask with the top [l] bits set. *)
let mask l =
  if l = 0 then zero
  else if l <= 64 then
    { hi = (if l = 64 then -1L else Int64.shift_left (-1L) (64 - l)); lo = 0L }
  else { hi = -1L; lo = (if l = 128 then -1L else Int64.shift_left (-1L) (128 - l)) }

(* Leading zeros of the 64-bit value, via the two 32-bit halves so the
   scan itself runs on immediate ints. *)
let clz64 x =
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
  in
  let hi = Int64.to_int (Int64.shift_right_logical x 32) in
  if hi <> 0 then clz32 hi
  else 32 + clz32 (Int64.to_int (Int64.logand x 0xffffffffL))

let logand a b = { hi = Int64.logand a.hi b.hi; lo = Int64.logand a.lo b.lo }

module Prefix = struct
  type addr = t

  let addr_equal = equal

  (* The enclosing module's unsigned 128-bit compare. Bound by name
     before [Prefix.compare] shadows [compare] below: prefix ordering
     MUST stay unsigned — polymorphic (or signed Int64) comparison
     would order high-bit-set addresses (8000::/1 and up) before low
     ones and silently corrupt every sorted-prefix invariant. *)
  let addr_compare = compare
  type nonrec t = { net : t; len : int }

  let make a l =
    if l < 0 || l > bits then invalid_arg "Ipv6.Prefix.make: bad length";
    { net = logand a (mask l); len = l }

  let network p = p.net
  let length p = p.len

  let of_string s =
    match String.index_opt s '/' with
    | None -> Error (Printf.sprintf "invalid IPv6 prefix %S: missing '/'" s)
    | Some i ->
      let addr_s = String.sub s 0 i and len_s = String.sub s (i + 1) (String.length s - i - 1) in
      (match of_string addr_s with
       | Error e -> Error e
       | Ok a ->
         let l =
           if String.length len_s = 0 || String.length len_s > 3 then None
           else if String.exists (fun c -> c < '0' || c > '9') len_s then None
           else
             let v = int_of_string len_s in
             if v > bits then None else Some v
         in
         (match l with
          | None -> Error (Printf.sprintf "invalid IPv6 prefix %S: bad length" s)
          | Some l ->
            if not (equal (logand a (mask l)) a) then
              Error (Printf.sprintf "invalid IPv6 prefix %S: host bits set" s)
            else Ok (make a l)))

  let to_string p = Printf.sprintf "%s/%d" (to_string p.net) p.len

  let compare p q =
    let c = addr_compare p.net q.net in
    if c <> 0 then c else Int.compare p.len q.len

  let equal p q = addr_equal p.net q.net && Int.equal p.len q.len
    [@@lint.test_only "alcotest equality: test_ipv6's prefix testable"]
  let pp ppf p = Format.pp_print_string ppf (to_string p)
    [@@lint.test_only "alcotest printer: test_ipv6's prefix testable"]

  let subset sub sup =
    sub.len >= sup.len && addr_equal (logand sub.net (mask sup.len)) sup.net

  let bit p i = bit p.net i

  let truncate p l =
    if l < 0 || l > p.len then invalid_arg "Ipv6.Prefix.truncate: bad length";
    make p.net l

  let common_length p q =
    let m = if p.len < q.len then p.len else q.len in
    let d =
      let xh = Int64.logxor p.net.hi q.net.hi in
      if Int64.equal xh 0L then begin
        let xl = Int64.logxor p.net.lo q.net.lo in
        if Int64.equal xl 0L then bits else 64 + clz64 xl
      end
      else clz64 xh
    in
    if d < m then d else m

  let split p =
    if p.len >= bits then None
    else
      let left = { net = p.net; len = p.len + 1 } in
      let right = { net = set_bit p.net p.len true; len = p.len + 1 } in
      Some (left, right)

  let subprefixes p l =
    if l < p.len || l > bits then invalid_arg "Ipv6.Prefix.subprefixes: bad length";
    if l - p.len > 20 then invalid_arg "Ipv6.Prefix.subprefixes: enumeration too large";
    let rec go ps depth =
      if depth = 0 then ps
      else
        let expand acc q =
          match split q with
          | Some (a, b) -> b :: a :: acc
          | None -> acc
        in
        go (List.rev (List.fold_left expand [] ps)) (depth - 1)
    in
    go [ p ] (l - p.len)

end

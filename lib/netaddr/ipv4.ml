type t = int

let bits = 32
let max_addr = (1 lsl 32) - 1
let zero = 0
let of_int32_bits n = n land max_addr
let to_int a = a

let to_octets a = ((a lsr 24) land 0xff, (a lsr 16) land 0xff, (a lsr 8) land 0xff, a land 0xff)

(* Hand-rolled parser: [String.split_on_char] plus [int_of_string] would
   accept forms like "+1" and "0x10" that are not valid dotted quads. *)
let of_string s =
  let n = String.length s in
  let err = Error (Printf.sprintf "invalid IPv4 address %S" s) in
  let rec octet i acc digits =
    if i >= n || s.[i] = '.' then
      if digits = 0 || acc > 255 then None else Some (acc, i)
    else
      match s.[i] with
      | '0' .. '9' ->
        if digits >= 3 then None
        else octet (i + 1) ((acc * 10) + (Char.code s.[i] - Char.code '0')) (digits + 1)
      | _ -> None
  in
  let rec go i k acc =
    match octet i 0 0 with
    | None -> err
    | Some (v, j) ->
      let acc = (acc lsl 8) lor v in
      if k = 3 then if j = n then Ok acc else err
      else if j < n && s.[j] = '.' then go (j + 1) (k + 1) acc
      else err
  in
  go 0 0 0

let to_string a =
  let x, y, z, w = to_octets a in
  Printf.sprintf "%d.%d.%d.%d" x y z w

let equal = Int.equal
  [@@lint.test_only "alcotest equality: Testutil.ipv4"]
let pp ppf a = Format.pp_print_string ppf (to_string a)
  [@@lint.test_only "alcotest printer: Testutil.ipv4"]

let bit a i =
  if i < 0 || i >= bits then invalid_arg "Ipv4.bit: index out of range";
  (a lsr (31 - i)) land 1 = 1

let set_bit a i v =
  if i < 0 || i >= bits then invalid_arg "Ipv4.set_bit: index out of range";
  let m = 1 lsl (31 - i) in
  if v then a lor m else a land lnot m

(* Leading zeros of a 32-bit value (32 when zero). The local refs are
   compiled to mutable stack slots, so this allocates nothing. *)
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

module Prefix = struct
  type addr = t

  (* Packed as [network lsl 6 lor length]: gives allocation-free values and
     a single-integer comparison for the (network, length) order. *)
  type t = int

  let mask l = if l = 0 then 0 else max_addr lxor ((1 lsl (32 - l)) - 1)

  let make a l =
    if l < 0 || l > bits then invalid_arg "Ipv4.Prefix.make: bad length";
    ((a land mask l) lsl 6) lor l

  let network p = p lsr 6
  let length p = p land 0x3f

  let of_string s =
    match String.index_opt s '/' with
    | None -> Error (Printf.sprintf "invalid IPv4 prefix %S: missing '/'" s)
    | Some i ->
      let addr_s = String.sub s 0 i and len_s = String.sub s (i + 1) (String.length s - i - 1) in
      (match of_string addr_s with
       | Error e -> Error e
       | Ok a ->
         let l =
           if String.length len_s = 0 || String.length len_s > 2 then None
           else if String.exists (fun c -> c < '0' || c > '9') len_s then None
           else
             let v = int_of_string len_s in
             if v > bits then None else Some v
         in
         (match l with
          | None -> Error (Printf.sprintf "invalid IPv4 prefix %S: bad length" s)
          | Some l ->
            if a land mask l <> a then
              Error (Printf.sprintf "invalid IPv4 prefix %S: host bits set" s)
            else Ok (make a l)))

  let to_string p = Printf.sprintf "%s/%d" (to_string (network p)) (length p)
  let compare = Int.compare
  let equal = Int.equal
    [@@lint.test_only "alcotest equality: test_ipv4's prefix testable"]
  let pp ppf p = Format.pp_print_string ppf (to_string p)
    [@@lint.test_only "alcotest printer: test_ipv4's prefix testable"]

  let subset sub sup =
    length sub >= length sup && network sub land mask (length sup) = network sup

  let bit p i = bit (network p) i

  let truncate p l =
    if l < 0 || l > length p then invalid_arg "Ipv4.Prefix.truncate: bad length";
    make (network p) l

  let common_length p q =
    let lp = length p and lq = length q in
    let m = if lp < lq then lp else lq in
    let x = network p lxor network q in
    if x = 0 then m
    else
      let d = clz32 x in
      if d < m then d else m

  let split p =
    let l = length p in
    if l >= bits then None
    else
      let left = make (network p) (l + 1) in
      let right = make (network p lor (1 lsl (31 - l))) (l + 1) in
      Some (left, right)

  let last p = network p lor (max_addr land lnot (mask (length p)))

  let subprefixes p l =
    if l < length p || l > bits then invalid_arg "Ipv4.Prefix.subprefixes: bad length";
    let step = 1 lsl (32 - l) in
    let rec go a acc =
      if a > last p then List.rev acc else go (a + step) (make a l :: acc)
    in
    go (network p) []

end

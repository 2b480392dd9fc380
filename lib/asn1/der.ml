type t =
  | Boolean of bool
  | Integer of int64
  | Bit_string of int * string
  | Octet_string of string
  | Null
  | Oid of int list
  | Ia5_string of string
  | Sequence of t list
  | Set of t list
  | Context of int * t list
  | Context_prim of int * string

let rec equal a b =
  match a, b with
  | Boolean x, Boolean y -> x = y
  | Integer x, Integer y -> Int64.equal x y
  | Bit_string (u, s), Bit_string (v, r) -> u = v && String.equal s r
  | Octet_string s, Octet_string r -> String.equal s r
  | Null, Null -> true
  | Oid x, Oid y -> x = y
  | Ia5_string s, Ia5_string r -> String.equal s r
  | Sequence x, Sequence y | Set x, Set y -> List.equal equal x y
  | Context (n, x), Context (m, y) -> n = m && List.equal equal x y
  | Context_prim (n, s), Context_prim (m, r) -> n = m && String.equal s r
  | ( ( Boolean _ | Integer _ | Bit_string _ | Octet_string _ | Null | Oid _ | Ia5_string _
      | Sequence _ | Set _ | Context _ | Context_prim _ ),
      _ ) ->
    false
  [@@lint.test_only "alcotest equality: test_der's DER testable"]

let rec pp ppf = function
  | Boolean b -> Format.fprintf ppf "BOOLEAN %b" b
  | Integer i -> Format.fprintf ppf "INTEGER %Ld" i
  | Bit_string (u, s) -> Format.fprintf ppf "BIT STRING (%d bits)" ((String.length s * 8) - u)
  | Octet_string s -> Format.fprintf ppf "OCTET STRING (%d bytes)" (String.length s)
  | Null -> Format.pp_print_string ppf "NULL"
  | Oid ids ->
    Format.fprintf ppf "OID %s" (String.concat "." (List.map string_of_int ids))
  | Ia5_string s -> Format.fprintf ppf "IA5String %S" s
  | Sequence l ->
    Format.fprintf ppf "SEQUENCE {@[<hv>%a@]}" (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp) l
  | Set l ->
    Format.fprintf ppf "SET {@[<hv>%a@]}" (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp) l
  | Context (n, l) ->
    Format.fprintf ppf "[%d] {@[<hv>%a@]}" n (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp) l
  | Context_prim (n, s) -> Format.fprintf ppf "[%d] (%d bytes)" n (String.length s)

(* --- Encoding --- *)

let encode_length buf n =
  if n < 0x80 then Buffer.add_char buf (Char.chr n)
  else begin
    let rec bytes acc n = if n = 0 then acc else bytes ((n land 0xff) :: acc) (n lsr 8) in
    let bs = bytes [] n in
    Buffer.add_char buf (Char.chr (0x80 lor List.length bs));
    List.iter (fun b -> Buffer.add_char buf (Char.chr b)) bs
  end

(* Two's-complement big-endian minimal encoding of an INTEGER. *)
let integer_bytes v =
  if Int64.equal v 0L then "\x00"
  else begin
    let rec go acc v =
      (* Stop once the remaining value is a pure sign extension of the
         accumulated top byte. *)
      if (Int64.equal v 0L && List.length acc > 0 && List.hd acc < 0x80)
         || (Int64.equal v (-1L) && List.length acc > 0 && List.hd acc >= 0x80)
      then acc
      else go (Int64.to_int (Int64.logand v 0xffL) :: acc) (Int64.shift_right v 8)
    in
    let bs = go [] v in
    String.init (List.length bs) (fun i -> Char.chr (List.nth bs i))
  end

let oid_bytes ids =
  match ids with
  | a :: b :: rest when a >= 0 && a <= 2 && b >= 0 && (a = 2 || b < 40) ->
    let buf = Buffer.create 8 in
    let base128 v =
      let rec go acc v = if v = 0 && acc <> [] then acc else go ((v land 0x7f) :: acc) (v lsr 7) in
      let bs = match go [] v with [] -> [ 0 ] | bs -> bs in
      List.iteri
        (fun i b -> Buffer.add_char buf (Char.chr (if i = List.length bs - 1 then b else b lor 0x80)))
        bs
    in
    base128 ((a * 40) + b);
    List.iter base128 rest;
    Buffer.contents buf
  | _ -> invalid_arg "Der.encode: malformed OID"

let rec encode_to buf v =
  let tlv tag payload =
    Buffer.add_char buf (Char.chr tag);
    encode_length buf (String.length payload);
    Buffer.add_string buf payload
  in
  match v with
  | Boolean b -> tlv 0x01 (if b then "\xff" else "\x00")
  | Integer i -> tlv 0x02 (integer_bytes i)
  | Bit_string (unused, s) ->
    if unused < 0 || unused > 7 || (unused > 0 && String.length s = 0) then
      invalid_arg "Der.encode: malformed BIT STRING";
    tlv 0x03 (String.make 1 (Char.chr unused) ^ s)
  | Octet_string s -> tlv 0x04 s
  | Null -> tlv 0x05 ""
  | Oid ids -> tlv 0x06 (oid_bytes ids)
  | Ia5_string s -> tlv 0x16 s
  | Sequence l -> tlv 0x30 (encode_list l)
  | Set l -> tlv 0x31 (encode_list l)
  | Context (n, l) ->
    if n < 0 || n > 30 then invalid_arg "Der.encode: context tag out of range";
    tlv (0xa0 lor n) (encode_list l)
  | Context_prim (n, s) ->
    if n < 0 || n > 30 then invalid_arg "Der.encode: context tag out of range";
    tlv (0x80 lor n) s

and encode_list l =
  let buf = Buffer.create 64 in
  List.iter (encode_to buf) l;
  Buffer.contents buf

let encode v =
  let buf = Buffer.create 64 in
  encode_to buf v;
  Buffer.contents buf

(* --- Decoding --- *)

let ( let* ) = Result.bind

let read_length s off =
  let n = String.length s in
  if off >= n then Error "truncated length"
  else
    let b = Char.code s.[off] in
    if b < 0x80 then Ok (b, off + 1)
    else
      let count = b land 0x7f in
      if count = 0 then Error "indefinite length not allowed in DER"
      else if count > 7 then Error "length too large"
      else if off + 1 + count > n then Error "truncated length"
      else begin
        let v = ref 0 in
        for i = 0 to count - 1 do
          v := (!v lsl 8) lor Char.code s.[off + 1 + i]
        done;
        if !v < 0x80 && count = 1 then Error "non-minimal length encoding"
        else if count > 1 && !v < 1 lsl ((count - 1) * 8) then Error "non-minimal length encoding"
        else Ok (!v, off + 1 + count)
      end

let decode_integer payload =
  let n = String.length payload in
  if n = 0 then Error "empty INTEGER"
  else if n > 8 then Error "INTEGER too large"
  else if
    n >= 2
    && ((Char.code payload.[0] = 0x00 && Char.code payload.[1] < 0x80)
        || (Char.code payload.[0] = 0xff && Char.code payload.[1] >= 0x80))
  then Error "non-minimal INTEGER"
  else begin
    let v = ref (if Char.code payload.[0] >= 0x80 then -1L else 0L) in
    String.iter (fun c -> v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c))) payload;
    Ok !v
  end

let decode_oid payload =
  let n = String.length payload in
  if n = 0 then Error "empty OID"
  else begin
    let rec read_base128 i acc count =
      if i >= n then Error "truncated OID component"
      else if count > 8 then Error "OID component too large"
      else
        let b = Char.code payload.[i] in
        if count = 0 && b = 0x80 then Error "non-minimal OID component"
        else
          let acc = (acc lsl 7) lor (b land 0x7f) in
          if b land 0x80 = 0 then Ok (acc, i + 1) else read_base128 (i + 1) acc (count + 1)
    in
    let* first, off = read_base128 0 0 0 in
    let a, b = if first < 40 then (0, first) else if first < 80 then (1, first - 40) else (2, first - 80) in
    let rec rest off acc =
      if off = n then Ok (List.rev acc)
      else
        let* v, off = read_base128 off 0 0 in
        rest off (v :: acc)
    in
    let* tail = rest off [] in
    Ok (a :: b :: tail)
  end

(* One value starting at [off], and the offset one past its end. *)
let rec decode_prefix s off =
  let n = String.length s in
  if off >= n then Error "truncated tag"
  else
    let tag = Char.code s.[off] in
    let* len, body = read_length s (off + 1) in
    if body + len > n then Error "truncated value"
    else
      let payload = String.sub s body len in
      let fin v = Ok (v, body + len) in
      match tag with
      | 0x01 ->
        if len <> 1 then Error "BOOLEAN must be one byte"
        else if payload = "\xff" then fin (Boolean true)
        else if payload = "\x00" then fin (Boolean false)
        else Error "non-canonical BOOLEAN"
      | 0x02 ->
        let* v = decode_integer payload in
        fin (Integer v)
      | 0x03 ->
        if len = 0 then Error "empty BIT STRING"
        else
          let unused = Char.code payload.[0] in
          if unused > 7 || (unused > 0 && len = 1) then Error "malformed BIT STRING"
          else fin (Bit_string (unused, String.sub payload 1 (len - 1)))
      | 0x04 -> fin (Octet_string payload)
      | 0x05 -> if len = 0 then fin Null else Error "non-empty NULL"
      | 0x06 ->
        let* ids = decode_oid payload in
        fin (Oid ids)
      | 0x16 -> fin (Ia5_string payload)
      | 0x30 ->
        let* l = decode_all payload in
        fin (Sequence l)
      | 0x31 ->
        let* l = decode_all payload in
        fin (Set l)
      | _ when tag land 0xc0 = 0x80 && tag land 0x20 = 0x20 ->
        let* l = decode_all payload in
        fin (Context (tag land 0x1f, l))
      | _ when tag land 0xc0 = 0x80 -> fin (Context_prim (tag land 0x1f, payload))
      | _ -> Error (Printf.sprintf "unsupported tag 0x%02x" tag)

and decode_all s =
  let rec go off acc =
    if off = String.length s then Ok (List.rev acc)
    else
      let* v, off = decode_prefix s off in
      go off (v :: acc)
  in
  go 0 []

let decode s =
  let* v, off = decode_prefix s 0 in
  if off = String.length s then Ok v else Error "trailing bytes after DER value"

let as_sequence = function Sequence l -> Ok l | v -> Error (Format.asprintf "expected SEQUENCE, got %a" pp v)
let as_integer = function Integer i -> Ok i | v -> Error (Format.asprintf "expected INTEGER, got %a" pp v)

let as_int v =
  let* i = as_integer v in
  if Int64.compare i (Int64.of_int max_int) > 0 || Int64.compare i (Int64.of_int min_int) < 0 then
    Error "INTEGER out of int range"
  else Ok (Int64.to_int i)

let as_octet_string = function
  | Octet_string s -> Ok s
  | v -> Error (Format.asprintf "expected OCTET STRING, got %a" pp v)

let as_bit_string = function
  | Bit_string (u, s) -> Ok (u, s)
  | v -> Error (Format.asprintf "expected BIT STRING, got %a" pp v)

let as_oid = function Oid l -> Ok l | v -> Error (Format.asprintf "expected OID, got %a" pp v)

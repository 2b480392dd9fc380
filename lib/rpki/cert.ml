module Pfx = Netaddr.Pfx

type t = {
  subject : string;
  issuer : string;
  serial : int;
  resources : Pfx.t list;
  as_resources : Asnum.t list;
  pubkey : Hashcrypto.Merkle.public_key;
  signature : string;
}

(* The DER "to-be-signed" form: every field except the signature. *)
let tbs_bytes c =
  Asn1.Der.encode
    (Asn1.Der.Sequence
       [ Asn1.Der.Ia5_string c.subject;
         Asn1.Der.Ia5_string c.issuer;
         Asn1.Der.Integer (Int64.of_int c.serial);
         Asn1.Der.Sequence
           (List.map (fun p -> Asn1.Der.Ia5_string (Pfx.to_string p)) c.resources);
         Asn1.Der.Sequence
           (List.map (fun a -> Asn1.Der.Integer (Int64.of_int (Asnum.to_int a))) c.as_resources);
         Asn1.Der.Octet_string c.pubkey ])

let issue ~subject ~serial ~resources ~as_resources ~pubkey ~issuer_name ~issuer_key =
  let unsigned =
    { subject; issuer = issuer_name; serial; resources; as_resources; pubkey; signature = "" }
  in
  let signature = Hashcrypto.Merkle.(encode (sign issuer_key (tbs_bytes unsigned))) in
  { unsigned with signature }

let verify_signature c ~issuer_pubkey =
  match Hashcrypto.Merkle.decode c.signature with
  | Error _ -> false
  | Ok sg -> Hashcrypto.Merkle.verify issuer_pubkey (tbs_bytes { c with signature = "" }) sg

let covers_prefix c p = List.exists (fun q -> Pfx.subset p q) c.resources
let covers_asn c a = List.exists (Asnum.equal a) c.as_resources

let holds c ~resources ~as_resources =
  List.for_all (covers_prefix c) resources && List.for_all (covers_asn c) as_resources

(* Full certificate = SEQUENCE { tbs, signature OCTET STRING }. The TBS
   layout is the one [tbs_bytes] signs, so decode/verify compose. *)
let to_der c =
  Asn1.Der.encode
    (Asn1.Der.Sequence
       [ Asn1.Der.Ia5_string c.subject;
         Asn1.Der.Ia5_string c.issuer;
         Asn1.Der.Integer (Int64.of_int c.serial);
         Asn1.Der.Sequence (List.map (fun p -> Asn1.Der.Ia5_string (Pfx.to_string p)) c.resources);
         Asn1.Der.Sequence
           (List.map (fun a -> Asn1.Der.Integer (Int64.of_int (Asnum.to_int a))) c.as_resources);
         Asn1.Der.Octet_string c.pubkey;
         Asn1.Der.Octet_string c.signature ])

let ( let* ) = Result.bind

let of_der bytes =
  let* v = Asn1.Der.decode bytes in
  let* parts = Asn1.Der.as_sequence v in
  match parts with
  | [ subject; issuer; serial; resources; as_resources; pubkey; signature ] ->
    let* subject = (match subject with Asn1.Der.Ia5_string s -> Ok s | _ -> Error "bad subject") in
    let* issuer = (match issuer with Asn1.Der.Ia5_string s -> Ok s | _ -> Error "bad issuer") in
    let* serial = Asn1.Der.as_int serial in
    let* resource_list = Asn1.Der.as_sequence resources in
    let* resources =
      List.fold_left
        (fun acc r ->
          let* acc = acc in
          match r with
          | Asn1.Der.Ia5_string s ->
            let* p = Pfx.of_string s in
            Ok (p :: acc)
          | _ -> Error "bad resource entry")
        (Ok []) resource_list
      |> Result.map List.rev
    in
    let* asn_list = Asn1.Der.as_sequence as_resources in
    let* as_resources =
      List.fold_left
        (fun acc r ->
          let* acc = acc in
          let* n = Asn1.Der.as_int r in
          if n < 0 || n > (1 lsl 32) - 1 then Error "AS resource out of range"
          else Ok (Asnum.of_int n :: acc))
        (Ok []) asn_list
      |> Result.map List.rev
    in
    let* pubkey = Asn1.Der.as_octet_string pubkey in
    let* signature = Asn1.Der.as_octet_string signature in
    Ok { subject; issuer; serial; resources; as_resources; pubkey; signature }
  | _ -> Error "malformed certificate"

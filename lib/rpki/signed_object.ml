let roa_content_type = [ 1; 2; 840; 113549; 1; 9; 16; 1; 24 ]

type t = {
  content_type : int list;
  econtent : string;
  ee_cert : Cert.t;
  signature : string;
}

let make ~content_type ~econtent ~ee_key ~ee_cert =
  { content_type;
    econtent;
    ee_cert;
    signature = Hashcrypto.Merkle.(encode (sign ee_key econtent)) }

let encode t =
  Asn1.Der.encode
    (Asn1.Der.Sequence
       [ Asn1.Der.Oid t.content_type;
         Asn1.Der.Octet_string t.econtent;
         Asn1.Der.Octet_string (Cert.to_der t.ee_cert);
         Asn1.Der.Octet_string t.signature ])

let ( let* ) = Result.bind

let decode bytes =
  let* v = Asn1.Der.decode bytes in
  let* parts = Asn1.Der.as_sequence v in
  match parts with
  | [ oid; econtent; cert_bytes; signature ] ->
    let* content_type = Asn1.Der.as_oid oid in
    let* econtent = Asn1.Der.as_octet_string econtent in
    let* cert_der = Asn1.Der.as_octet_string cert_bytes in
    let* ee_cert = Cert.of_der cert_der in
    let* signature = Asn1.Der.as_octet_string signature in
    Ok { content_type; econtent; ee_cert; signature }
  | _ -> Error "malformed signed object"

let verify_envelope t ~content_type ~issuer_pubkey =
  if t.content_type <> content_type then Error "unexpected content type"
  else if not (Cert.verify_signature t.ee_cert ~issuer_pubkey) then
    Error "bad signature on EE certificate"
  else
    let* sg =
      Result.map_error (fun e -> "undecodable object signature: " ^ e)
        (Hashcrypto.Merkle.decode t.signature)
    in
    if not (Hashcrypto.Merkle.verify t.ee_cert.Cert.pubkey t.econtent sg) then
      Error "object signature does not verify"
    else Ok (t.econtent, t.ee_cert)

type verified = { roa : Roa.t; ee_cert : Cert.t }

let verify t ~issuer_pubkey =
  let* econtent, ee_cert = verify_envelope t ~content_type:roa_content_type ~issuer_pubkey in
  let* roa = Result.map_error (fun e -> "malformed ROA eContent: " ^ e) (Roa_der.decode econtent) in
  Ok { roa; ee_cert }

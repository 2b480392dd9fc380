module Merkle = Hashcrypto.Merkle
module Sha256 = Hashcrypto.Sha256

type ca = {
  cert : Cert.t;
  key : Merkle.secret_key;
  mutable files : (string * string) list; (* published name -> digest *)
  mutable mft_number : int;
  mutable mft_wire : string option; (* cached signed manifest; None = dirty *)
  mutable crl : int list; (* revoked EE certificate serials *)
}

type published_object = {
  name : string;
  issuer_ca : string;
  mutable wire : string; (* the full DER signed-object blob; mutable only for [tamper] *)
}

type t = {
  seed : string;
  ta_cert : Cert.t;
  ta_key : Merkle.secret_key;
  cas : (string, ca) Hashtbl.t;
  mutable objects : published_object list;
  mutable serial : int;
  mutable now : int; (* logical clock for manifest validity windows *)
}

type handle = string (* CA subject name *)

let next_serial t =
  t.serial <- t.serial + 1;
  t.serial

let all_space = [ Netaddr.Pfx.of_string_exn "0.0.0.0/0"; Netaddr.Pfx.of_string_exn "::/0" ]

let create ?(ta_height = 8) ~seed name =
  let ta_key, ta_pub = Merkle.generate ~seed:(seed ^ "/ta") ~height:ta_height in
  (* The TA is self-issued; relying parties trust its key digest, not
     its signature. *)
  let ta_cert =
    Cert.issue ~subject:name ~serial:1 ~resources:all_space
      ~as_resources:[] ~pubkey:ta_pub ~issuer_name:name ~issuer_key:ta_key
  in
  let t =
    { seed; ta_cert; ta_key; cas = Hashtbl.create 64; objects = []; serial = 1; now = 0 }
  in
  Hashtbl.replace t.cas name
    { cert = ta_cert; key = ta_key; files = []; mft_number = 0; mft_wire = None; crl = [] };
  t

let trust_anchor_cert t = t.ta_cert
let trust_anchor_key_digest t = Sha256.digest t.ta_cert.Cert.pubkey
let root t = t.ta_cert.Cert.subject

let find_ca t name =
  match Hashtbl.find_opt t.cas name with
  | Some ca -> Ok ca
  | None -> Error (Printf.sprintf "unknown CA %S" name)

let make_ca t ~parent ~name ~resources ~as_resources ~height =
  let ca_key, ca_pub = Merkle.generate ~seed:(t.seed ^ "/ca/" ^ name) ~height in
  let cert =
    Cert.issue ~subject:name ~serial:(next_serial t) ~resources ~as_resources ~pubkey:ca_pub
      ~issuer_name:parent.cert.Cert.subject ~issuer_key:parent.key
  in
  Hashtbl.replace t.cas name
    { cert; key = ca_key; files = []; mft_number = 0; mft_wire = None; crl = [] };
  name

let add_ca t ~parent ~name ~resources ~as_resources ?(height = 10) () =
  match find_ca t parent with
  | Error _ as e -> e
  | Ok parent_ca ->
    if Hashtbl.mem t.cas name then Error (Printf.sprintf "CA %S already exists" name)
    else if Merkle.capacity parent_ca.key < 2 then
      Error (Printf.sprintf "CA %S key exhausted" parent)
    else begin
      (* The trust anchor implicitly holds the whole AS number space;
         below it, AS resources must be explicitly delegated. *)
      let prefixes_ok = List.for_all (Cert.covers_prefix parent_ca.cert) resources in
      let asns_ok =
        parent = root t || List.for_all (Cert.covers_asn parent_ca.cert) as_resources
      in
      if not (prefixes_ok && asns_ok) then Error "requested resources exceed the parent's"
      else Ok (make_ca t ~parent:parent_ca ~name ~resources ~as_resources ~height)
    end

let add_ca_unchecked t ~parent ~name ~resources ~as_resources ?(height = 10) () =
  match find_ca t parent with
  | Error e -> invalid_arg e
  | Ok parent_ca -> make_ca t ~parent:parent_ca ~name ~resources ~as_resources ~height

let publish t ca roa =
  let name = Printf.sprintf "%s/roa-%d.roa" ca.cert.Cert.subject (next_serial t) in
  (* One-time EE key per signed object, as RFC 6488 prescribes. *)
  let ee_key, ee_pub = Merkle.generate ~seed:(t.seed ^ "/ee/" ^ name) ~height:0 in
  let ee_cert =
    Cert.issue ~subject:("ee:" ^ name) ~serial:(next_serial t)
      ~resources:(List.map (fun (e : Roa.entry) -> e.Roa.prefix) (Roa.entries roa))
      ~as_resources:[ Roa.asn roa ] ~pubkey:ee_pub ~issuer_name:ca.cert.Cert.subject
      ~issuer_key:ca.key
  in
  let wire = Signed_object.encode (Signed_object.make_roa roa ~ee_key ~ee_cert) in
  let obj = { name; issuer_ca = ca.cert.Cert.subject; wire } in
  t.objects <- obj :: t.objects;
  ca.files <- (name, Sha256.digest wire) :: ca.files;
  ca.mft_wire <- None;
  name

let issue_roa t handle roa =
  match find_ca t handle with
  | Error _ as e -> e
  | Ok ca ->
    if Merkle.capacity ca.key < 2 (* one for the EE cert, one reserved for the manifest *)
    then Error (Printf.sprintf "CA %S key exhausted" handle)
    else if
      not
        (List.for_all
           (fun (e : Roa.entry) -> Cert.covers_prefix ca.cert e.Roa.prefix)
           (Roa.entries roa)
         && Cert.covers_asn ca.cert (Roa.asn roa))
    then Error "ROA resources exceed the CA's"
    else Ok (publish t ca roa)

let issue_roa_unchecked t handle roa =
  match find_ca t handle with
  | Error e -> invalid_arg e
  | Ok ca -> publish t ca roa

let publish_aspa t ca aspa =
  let name = Printf.sprintf "%s/aspa-%d.asa" ca.cert.Cert.subject (next_serial t) in
  let ee_key, ee_pub = Merkle.generate ~seed:(t.seed ^ "/ee/" ^ name) ~height:0 in
  let ee_cert =
    Cert.issue ~subject:("ee:" ^ name) ~serial:(next_serial t) ~resources:[]
      ~as_resources:[ aspa.Aspa.customer ] ~pubkey:ee_pub ~issuer_name:ca.cert.Cert.subject
      ~issuer_key:ca.key
  in
  let wire =
    Signed_object.encode
      (Signed_object.make ~content_type:Aspa.content_type
         ~econtent:(Aspa.encode_econtent aspa) ~ee_key ~ee_cert)
  in
  let obj = { name; issuer_ca = ca.cert.Cert.subject; wire } in
  t.objects <- obj :: t.objects;
  ca.files <- (name, Sha256.digest wire) :: ca.files;
  ca.mft_wire <- None;
  name

(* RFC 8209-style router certificate: the CA certifies that a BGPsec
   router key speaks for an AS number it holds. *)
let issue_router_cert t handle asn pubkey =
  match find_ca t handle with
  | Error _ as e -> e
  | Ok ca ->
    if Merkle.capacity ca.key < 2 then Error (Printf.sprintf "CA %S key exhausted" handle)
    else if not (Cert.covers_asn ca.cert asn) then
      Error "router certificate AS exceeds the CA's resources"
    else begin
      let name = Printf.sprintf "%s/router-%d.cer" ca.cert.Cert.subject (next_serial t) in
      let cert =
        Cert.issue ~subject:("router:" ^ Asnum.to_string asn) ~serial:(next_serial t)
          ~resources:[] ~as_resources:[ asn ] ~pubkey ~issuer_name:ca.cert.Cert.subject
          ~issuer_key:ca.key
      in
      let wire = Cert.to_der cert in
      let obj = { name; issuer_ca = ca.cert.Cert.subject; wire } in
      t.objects <- obj :: t.objects;
      ca.files <- (name, Sha256.digest wire) :: ca.files;
      ca.mft_wire <- None;
      Ok name
    end

let issue_aspa t handle aspa =
  match find_ca t handle with
  | Error _ as e -> e
  | Ok ca ->
    if Merkle.capacity ca.key < 2 then Error (Printf.sprintf "CA %S key exhausted" handle)
    else if not (Cert.covers_asn ca.cert aspa.Aspa.customer) then
      Error "ASPA customer AS exceeds the CA's resources"
    else Ok (publish_aspa t ca aspa)

let object_names t = List.rev_map (fun o -> o.name) t.objects
let object_count t = List.length t.objects

let object_bytes t name =
  match List.find_opt (fun o -> o.name = name) t.objects with
  | Some o -> Ok o.wire
  | None -> Error (Printf.sprintf "unknown object %S" name)

let find_object t name =
  match List.find_opt (fun o -> o.name = name) t.objects with
  | Some o -> Ok o
  | None -> Error (Printf.sprintf "unknown object %S" name)

let revoke t name =
  match find_object t name with
  | Error _ as e -> e
  | Ok o ->
    (match find_ca t o.issuer_ca with
     | Error _ as e -> e
     | Ok ca ->
       let serial =
         if Filename.check_suffix name ".cer" then
           Result.map (fun (c : Cert.t) -> c.Cert.serial) (Cert.of_der o.wire)
         else
           Result.map
             (fun (so : Signed_object.t) -> so.Signed_object.ee_cert.Cert.serial)
             (Signed_object.decode o.wire)
       in
       (match serial with
        | Error e -> Error ("cannot parse object to revoke: " ^ e)
        | Ok serial ->
          if not (List.exists (Int.equal serial) ca.crl) then ca.crl <- serial :: ca.crl;
          Ok ()))

let tamper t name =
  match find_object t name with
  | Error _ as e -> e
  | Ok o ->
    if String.length o.wire = 0 then Error "empty object"
    else begin
      let b = Bytes.of_string o.wire in
      let i = String.length o.wire / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      o.wire <- Bytes.unsafe_to_string b;
      Ok ()
    end

let drop_from_manifest t name =
  match find_object t name with
  | Error _ as e -> e
  | Ok o ->
    (match find_ca t o.issuer_ca with
     | Error _ as e -> e
     | Ok ca ->
       ca.files <- List.filter (fun (n, _) -> n <> name) ca.files;
       ca.mft_wire <- None;
       Ok ())

let advance_time t dt =
  if dt < 0 then invalid_arg "Repository.advance_time: negative";
  t.now <- t.now + dt

(* (Re)sign a CA's manifest when its publication set changed. Signing
   consumes one CA signature (for the manifest's EE certificate). *)
let manifest_wire t ca =
  match ca.mft_wire with
  | Some w -> Ok w
  | None ->
    if Merkle.capacity ca.key < 1 then
      Error (Printf.sprintf "CA %S cannot sign its manifest: key exhausted" ca.cert.Cert.subject)
    else begin
      ca.mft_number <- ca.mft_number + 1;
      let mft =
        Manifest.make ~number:ca.mft_number ~this_update:t.now ~next_update:(t.now + 1_000)
          (List.map (fun (file, digest) -> { Manifest.file; digest }) ca.files)
      in
      let name = Printf.sprintf "%s/manifest-%d.mft" ca.cert.Cert.subject ca.mft_number in
      let ee_key, ee_pub = Merkle.generate ~seed:(t.seed ^ "/mft-ee/" ^ name) ~height:0 in
      let ee_cert =
        Cert.issue ~subject:("ee:" ^ name) ~serial:(next_serial t) ~resources:[]
          ~as_resources:[] ~pubkey:ee_pub ~issuer_name:ca.cert.Cert.subject ~issuer_key:ca.key
      in
      let wire =
        Signed_object.encode
          (Signed_object.make ~content_type:Manifest.content_type
             ~econtent:(Manifest.encode_econtent mft) ~ee_key ~ee_cert)
      in
      ca.mft_wire <- Some wire;
      Ok wire
    end

let tamper_manifest t handle =
  match find_ca t handle with
  | Error _ as e -> e
  | Ok ca ->
    (match manifest_wire t ca with
     | Error _ as e -> e
     | Ok wire ->
       let b = Bytes.of_string wire in
       let i = Bytes.length b / 2 in
       Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
       ca.mft_wire <- Some (Bytes.to_string b);
       Ok ())

type rejection = { object_name : string; reason : string }

type outcome = {
  valid_roas : Roa.t list;
  valid_aspas : Aspa.t list;
  valid_router_keys : (Asnum.t * string) list;
  rejections : rejection list;
  missing_from_manifest : string list;
}

(* The chain check of one relying-party walk: maps a CA name to the
   CA's certificate when every certificate from it up to the trust
   anchor carries a good signature and stays within its issuer's
   resources. Verdicts are remembered for the walk and shared by a
   CA's manifest, its objects and its descendants, so each certificate
   signature is verified at most once per walk. Nothing outlives the
   walk (DESIGN.md, "Relying-party walk").

   A CA more than 32 certificates below the trust anchor, or on an
   issuer cycle, is "too deep" before anything else is looked at.
   Within that bound a verdict does not depend on which descendant
   asked for it, so one table serves every depth. *)
let chain_checker t =
  let verdicts : (string, (Cert.t, string) result) Hashtbl.t = Hashtbl.create 16 in
  (* Steps from [name] up to the trust anchor or an unknown issuer,
     counted no further than 33. *)
  let rec levels name n =
    if n > 32 then n
    else
      match Hashtbl.find_opt t.cas name with
      | Some ca when not (String.equal name (root t)) -> levels ca.cert.Cert.issuer (n + 1)
      | Some _ | None -> n
  in
  let rec verdict name =
    match Hashtbl.find_opt verdicts name with
    | Some v -> v
    | None ->
      let v =
        match Hashtbl.find_opt t.cas name with
        | None -> Error (Printf.sprintf "unknown issuer %S" name)
        | Some ca ->
          let cert = ca.cert in
          if String.equal name (root t) then
            if String.equal (Sha256.digest cert.Cert.pubkey) (trust_anchor_key_digest t) then
              Ok cert
            else Error "trust anchor key mismatch"
          else
            (match verdict cert.Cert.issuer with
             | Error _ as e -> e
             | Ok issuer_cert ->
               if not (Cert.verify_signature cert ~issuer_pubkey:issuer_cert.Cert.pubkey) then
                 Error (Printf.sprintf "bad signature on CA %S" name)
               else if
                 (* The TA claims all space, so containment checks reduce
                    to prefix coverage plus AS coverage for non-root
                    issuers. *)
                 not
                   (List.for_all (Cert.covers_prefix issuer_cert) cert.Cert.resources
                    && (issuer_cert.Cert.subject = root t
                        || List.for_all (Cert.covers_asn issuer_cert) cert.Cert.as_resources))
               then Error (Printf.sprintf "CA %S overclaims resources" name)
               else Ok cert)
      in
      Hashtbl.replace verdicts name v;
      v
  in
  fun name ->
    if Hashtbl.mem verdicts name || levels name 0 <= 32 then verdict name
    else Error "certificate chain too deep"

let validate t =
  let rejections = ref [] and valid = ref [] and valid_aspas = ref [] and missing = ref [] in
  let valid_router_keys = ref [] in
  let reject name reason = rejections := { object_name = name; reason } :: !rejections in
  let chain = chain_checker t in
  (* Per CA: fetch and verify its signed manifest first; every object
     under the CA is judged against it (RFC 9286 semantics). *)
  let manifests : (string, (Manifest.t, string) result) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name ca ->
      let verified =
        match chain name with
        | Error e -> Error e
        | Ok ca_cert ->
          (match manifest_wire t ca with
           | Error e -> Error e
           | Ok wire ->
             (match Signed_object.decode wire with
              | Error e -> Error ("undecodable manifest: " ^ e)
              | Ok so ->
                (match
                   Signed_object.verify_envelope so ~content_type:Manifest.content_type
                     ~issuer_pubkey:ca_cert.Cert.pubkey
                 with
                 | Error e -> Error ("invalid manifest: " ^ e)
                 | Ok (econtent, _) ->
                   (match Manifest.decode_econtent econtent with
                    | Error e -> Error ("malformed manifest: " ^ e)
                    | Ok mft ->
                      if Manifest.stale mft ~now:t.now then Error "stale manifest"
                      else Ok mft))))
      in
      Hashtbl.replace manifests name verified)
    t.cas;
  let check o =
    match chain o.issuer_ca with
    | Error e -> reject o.name e
    | Ok ca_cert ->
      (match Hashtbl.find_opt manifests o.issuer_ca with
       | None | Some (Error _) ->
         reject o.name
           (match Hashtbl.find_opt manifests o.issuer_ca with
            | Some (Error e) -> "CA manifest unusable: " ^ e
            | _ -> "CA manifest missing")
       | Some (Ok mft) ->
         (match Manifest.digest_of mft o.name with
          | None -> reject o.name "not listed on its CA's manifest"
          | Some d when not (String.equal d (Sha256.digest o.wire)) ->
            reject o.name "digest differs from manifest (tampered object)"
          | Some _ ->
            (* RFC 6488-style verification of the raw published bytes,
               dispatching on the envelope's content type. *)
            if Filename.check_suffix o.name ".cer" then begin
              match Cert.of_der o.wire with
              | Error e -> reject o.name ("undecodable router certificate: " ^ e)
              | Ok cert ->
                if not (Cert.verify_signature cert ~issuer_pubkey:ca_cert.Cert.pubkey) then
                  reject o.name "bad signature on router certificate"
                else if
                  not
                    (ca_cert.Cert.subject = root t
                     || List.for_all (Cert.covers_asn ca_cert) cert.Cert.as_resources)
                then reject o.name "router certificate overclaims its CA's resources"
                else if
                  (match Hashtbl.find_opt t.cas o.issuer_ca with
                   | Some ca -> List.exists (Int.equal cert.Cert.serial) ca.crl
                   | None -> false)
                then reject o.name "router certificate is revoked (on the CA's CRL)"
                else
                  List.iter
                    (fun asn -> valid_router_keys := (asn, cert.Cert.pubkey) :: !valid_router_keys)
                    cert.Cert.as_resources
            end
            else
            (match Signed_object.decode o.wire with
             | Error e -> reject o.name ("undecodable signed object: " ^ e)
             | Ok so ->
               let revoked ee_cert =
                 match Hashtbl.find_opt t.cas o.issuer_ca with
                 | Some ca -> List.exists (Int.equal ee_cert.Cert.serial) ca.crl
                 | None -> false
               in
               if so.Signed_object.content_type = Aspa.content_type then begin
                 match
                   Signed_object.verify_envelope so ~content_type:Aspa.content_type
                     ~issuer_pubkey:ca_cert.Cert.pubkey
                 with
                 | Error e -> reject o.name e
                 | Ok (econtent, ee_cert) ->
                   (match Aspa.decode_econtent econtent with
                    | Error e -> reject o.name ("malformed ASPA eContent: " ^ e)
                    | Ok aspa ->
                      if not (Cert.covers_asn ee_cert aspa.Aspa.customer) then
                        reject o.name "ASPA exceeds its EE certificate's resources"
                      else if
                        not
                          (ca_cert.Cert.subject = root t
                           || List.for_all (Cert.covers_asn ca_cert) ee_cert.Cert.as_resources)
                      then reject o.name "EE certificate overclaims its CA's resources"
                      else if revoked ee_cert then
                        reject o.name "EE certificate is revoked (on the CA's CRL)"
                      else valid_aspas := aspa :: !valid_aspas)
               end
               else
                 (match Signed_object.verify so ~issuer_pubkey:ca_cert.Cert.pubkey with
                  | Error e -> reject o.name e
                  | Ok { Signed_object.roa; ee_cert } ->
                    if
                      not
                        (List.for_all
                           (fun (e : Roa.entry) -> Cert.covers_prefix ee_cert e.Roa.prefix)
                           (Roa.entries roa)
                         && Cert.covers_asn ee_cert (Roa.asn roa))
                    then reject o.name "ROA exceeds its EE certificate's resources"
                    else if not (Cert.resources_within ee_cert ~issuer:ca_cert) then
                      reject o.name "EE certificate overclaims its CA's resources"
                    else if revoked ee_cert then
                      reject o.name "EE certificate is revoked (on the CA's CRL)"
                    else valid := roa :: !valid))))
  in
  List.iter check t.objects;
  let published = List.map (fun o -> o.name) t.objects in
  Hashtbl.iter
    (fun _ verified ->
      match verified with
      | Ok mft ->
        List.iter
          (fun (e : Manifest.entry) ->
            if not (List.exists (String.equal e.Manifest.file) published) then
              missing := e.Manifest.file :: !missing)
          mft.Manifest.entries
      | Error _ -> ())
    manifests;
  { valid_roas = List.rev !valid;
    valid_aspas = List.rev !valid_aspas;
    valid_router_keys = List.rev !valid_router_keys;
    rejections = List.rev !rejections;
    missing_from_manifest = !missing }

let size_on_wire t =
  let ca_size _ ca acc =
    acc
    + String.length (Cert.to_der ca.cert)
    + (match ca.mft_wire with Some w -> String.length w | None -> 0)
  in
  Hashtbl.fold ca_size t.cas
    (List.fold_left (fun a o -> a + String.length o.wire) 0 t.objects)

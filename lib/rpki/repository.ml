module Merkle = Hashcrypto.Merkle
module Sha256 = Hashcrypto.Sha256

let ( let* ) = Result.bind

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

let add_entry t cert key =
  Hashtbl.replace t.cas cert.Cert.subject
    { cert; key; files = []; mft_number = 0; mft_wire = None; crl = [] }

let create ?(ta_height = 8) ~seed name =
  let ta_key, ta_pub = Merkle.generate ~seed:(seed ^ "/ta") ~height:ta_height in
  (* The TA is self-issued; relying parties trust its key digest, not
     its signature. *)
  let ta_cert =
    Cert.issue ~subject:name ~serial:1 ~resources:all_space
      ~as_resources:[] ~pubkey:ta_pub ~issuer_name:name ~issuer_key:ta_key
  in
  let t = { seed; ta_cert; cas = Hashtbl.create 64; objects = []; serial = 1; now = 0 } in
  add_entry t ta_cert ta_key;
  t

let trust_anchor_key_digest t = Sha256.digest t.ta_cert.Cert.pubkey
let root t = t.ta_cert.Cert.subject

let find_ca t name =
  match Hashtbl.find_opt t.cas name with
  | Some ca -> Ok ca
  | None -> Error (Printf.sprintf "unknown CA %S" name)

(* The one containment rule (RFC 6487): the CA called [name] holds the
   prefixes and AS numbers its certificate lists, and the trust anchor
   also holds every AS number; below it, AS numbers must be delegated.
   [name] is a CA the issuer table or the chain walk resolved, never
   the subject of an EE certificate: a CA chooses those, so one named
   after the trust anchor must not earn the exemption. *)
let ca_holds t name (cert : Cert.t) ~resources ~as_resources =
  Cert.holds cert ~resources ~as_resources:(if String.equal name (root t) then [] else as_resources)

(* Certify [pubkey] under [ca] with the next serial. *)
let certify t ca ~subject ~resources ~as_resources pubkey =
  Cert.issue ~subject ~serial:(next_serial t) ~resources ~as_resources ~pubkey
    ~issuer_name:ca.cert.Cert.subject ~issuer_key:ca.key

let make_ca t ~parent ~name ~resources ~as_resources ~height =
  let key, pub = Merkle.generate ~seed:(t.seed ^ "/ca/" ^ name) ~height in
  add_entry t (certify t parent ~subject:name ~resources ~as_resources pub) key;
  name

let add_ca t ~parent ~name ~resources ~as_resources ?(height = 10) () =
  let* parent_ca = find_ca t parent in
  if Hashtbl.mem t.cas name then Error (Printf.sprintf "CA %S already exists" name)
  else if Merkle.capacity parent_ca.key < 2 then Error (Printf.sprintf "CA %S key exhausted" parent)
  else if not (ca_holds t parent parent_ca.cert ~resources ~as_resources) then
    Error "requested resources exceed the parent's"
  else Ok (make_ca t ~parent:parent_ca ~name ~resources ~as_resources ~height)

let add_ca_unchecked t ~parent ~name ~resources ~as_resources ?(height = 10) () =
  match find_ca t parent with
  | Error e -> invalid_arg e
  | Ok parent_ca -> make_ca t ~parent:parent_ca ~name ~resources ~as_resources ~height
  [@@lint.test_only "adversarial hook: forces in a CA the issuer check refuses"]

(* The resources a ROA claims: what its EE certificate, and the CA
   above that, must hold. *)
let claim roa = (List.map (fun (e : Roa.entry) -> e.Roa.prefix) (Roa.entries roa), [ Roa.asn roa ])

(* The one signer: a one-time EE key per signed object, as RFC 6488
   prescribes, an EE certificate for exactly [resources] and
   [as_resources], and the envelope around [econtent]. *)
let sign t ca ~name ~seed ~resources ~as_resources ~content_type ~econtent =
  let ee_key, ee_pub = Merkle.generate ~seed:(t.seed ^ seed ^ name) ~height:0 in
  let ee_cert = certify t ca ~subject:("ee:" ^ name) ~resources ~as_resources ee_pub in
  Signed_object.encode (Signed_object.make ~content_type ~econtent ~ee_key ~ee_cert)

(* The one publish step: sign [roa] under a one-time EE key that holds
   exactly its claim, name the object [<ca>/roa-<serial>.roa] and list
   it on the CA's manifest. *)
let publish_roa t ca roa =
  let issuer_ca = ca.cert.Cert.subject in
  let name = Printf.sprintf "%s/roa-%d.roa" issuer_ca (next_serial t) in
  let resources, as_resources = claim roa in
  let wire =
    sign t ca ~name ~seed:"/ee/" ~resources ~as_resources
      ~content_type:Signed_object.roa_content_type ~econtent:(Roa_der.encode roa)
  in
  t.objects <- { name; issuer_ca; wire } :: t.objects;
  ca.files <- (name, Sha256.digest wire) :: ca.files;
  ca.mft_wire <- None;
  name

let issue_roa t handle roa =
  let* ca = find_ca t handle in
  let resources, as_resources = claim roa in
  if Merkle.capacity ca.key < 2 then Error (Printf.sprintf "CA %S key exhausted" handle)
  else if not (ca_holds t handle ca.cert ~resources ~as_resources) then
    Error "ROA resources exceed the CA's"
  else Ok (publish_roa t ca roa)

let issue_roa_unchecked t handle roa =
  match find_ca t handle with
  | Error e -> invalid_arg e
  | Ok ca -> publish_roa t ca roa
  [@@lint.test_only "adversarial hook: publishes a ROA the issuer check refuses"]

let object_names t = List.rev_map (fun o -> o.name) t.objects
  [@@lint.test_only "witness: tests read what the repository publishes"]
let object_count t = List.length t.objects

let find_object t name =
  match List.find_opt (fun o -> o.name = name) t.objects with
  | Some o -> Ok o
  | None -> Error (Printf.sprintf "unknown object %S" name)

let object_bytes t name = Result.map (fun o -> o.wire) (find_object t name)
  [@@lint.test_only "witness: tests read the bytes a relying party fetches"]

let revoke t name =
  let* o = find_object t name in
  let* ca = find_ca t o.issuer_ca in
  match Signed_object.decode o.wire with
  | Error e -> Error ("cannot parse object to revoke: " ^ e)
  | Ok so ->
    let serial = so.Signed_object.ee_cert.Cert.serial in
    if not (List.exists (Int.equal serial) ca.crl) then ca.crl <- serial :: ca.crl;
    Ok ()

(* Flip the low bit of the middle byte. *)
let flip_bit s =
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.unsafe_to_string b

let tamper t name =
  let* o = find_object t name in
  if String.length o.wire = 0 then Error "empty object"
  else begin
    o.wire <- flip_bit o.wire;
    Ok ()
  end
  [@@lint.test_only "adversarial hook: repository compromise"]

let drop_from_manifest t name =
  let* o = find_object t name in
  let* ca = find_ca t o.issuer_ca in
  ca.files <- List.filter (fun (n, _) -> n <> name) ca.files;
  ca.mft_wire <- None;
  Ok ()
  [@@lint.test_only "adversarial hook: withholding"]

let advance_time t dt =
  if dt < 0 then invalid_arg "Repository.advance_time: negative";
  t.now <- t.now + dt
  [@@lint.test_only "adversarial hook: lets manifests go stale"]

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
      let wire =
        sign t ca ~name ~seed:"/mft-ee/" ~resources:[] ~as_resources:[]
          ~content_type:Manifest.content_type ~econtent:(Manifest.encode_econtent mft)
      in
      ca.mft_wire <- Some wire;
      Ok wire
    end

let tamper_manifest t handle =
  let* ca = find_ca t handle in
  let* wire = manifest_wire t ca in
  ca.mft_wire <- Some (flip_bit wire);
  Ok ()
  [@@lint.test_only "adversarial hook: a corrupted manifest"]

type rejection = { object_name : string; reason : string }

type outcome = {
  valid_roas : Roa.t list;
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
                 not
                   (ca_holds t cert.Cert.issuer issuer_cert ~resources:cert.Cert.resources
                      ~as_resources:cert.Cert.as_resources)
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
  let chain = chain_checker t in
  (* Per CA: fetch and verify its signed manifest first; every object
     under the CA is judged against it (RFC 9286 semantics). *)
  let manifests : (string, (Manifest.t, string) result) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name ca ->
      Hashtbl.replace manifests name
        (let* ca_cert = chain name in
         let* wire = manifest_wire t ca in
         let* so =
           Result.map_error (( ^ ) "undecodable manifest: ") (Signed_object.decode wire)
         in
         let* econtent, _ =
           Result.map_error (( ^ ) "invalid manifest: ")
             (Signed_object.verify_envelope so ~content_type:Manifest.content_type
                ~issuer_pubkey:ca_cert.Cert.pubkey)
         in
         let* mft =
           Result.map_error (( ^ ) "malformed manifest: ") (Manifest.decode_econtent econtent)
         in
         if Manifest.stale mft ~now:t.now then Error "stale manifest" else Ok mft))
    t.cas;
  let revoked ca_name (cert : Cert.t) =
    match Hashtbl.find_opt t.cas ca_name with
    | Some ca -> List.exists (Int.equal cert.Cert.serial) ca.crl
    | None -> false
  in
  (* The one object check: the CA's chain, the manifest's listing and
     digest, the signed object under the CA's key with its ROA within
     its EE certificate, then that certificate within its CA and off
     the CA's CRL. *)
  let check o =
    let* ca_cert = chain o.issuer_ca in
    let* mft =
      match Hashtbl.find_opt manifests o.issuer_ca with
      | Some (Ok mft) -> Ok mft
      | Some (Error e) -> Error ("CA manifest unusable: " ^ e)
      | None -> Error "CA manifest missing"
    in
    let* () =
      match Manifest.digest_of mft o.name with
      | None -> Error "not listed on its CA's manifest"
      | Some d when not (String.equal d (Sha256.digest o.wire)) ->
        Error "digest differs from manifest (tampered object)"
      | Some _ -> Ok ()
    in
    let* so =
      Result.map_error (( ^ ) "undecodable signed object: ") (Signed_object.decode o.wire)
    in
    let* { Signed_object.roa; ee_cert } =
      Signed_object.verify so ~issuer_pubkey:ca_cert.Cert.pubkey
    in
    let resources, as_resources = claim roa in
    if not (Cert.holds ee_cert ~resources ~as_resources) then
      Error "ROA exceeds its EE certificate's resources"
    else if
      not
        (ca_holds t o.issuer_ca ca_cert ~resources:ee_cert.Cert.resources
           ~as_resources:ee_cert.Cert.as_resources)
    then Error "EE certificate overclaims its CA's resources"
    else if revoked o.issuer_ca ee_cert then Error "EE certificate is revoked (on the CA's CRL)"
    else Ok roa
  in
  let roas = ref [] and rejections = ref [] in
  List.iter
    (fun o ->
      match check o with
      | Error reason -> rejections := { object_name = o.name; reason } :: !rejections
      | Ok roa -> roas := roa :: !roas)
    t.objects;
  let published = List.map (fun o -> o.name) t.objects in
  let missing = ref [] in
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
  { valid_roas = List.rev !roas;
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

module Asnum = Rpki.Asnum
module Merkle = Hashcrypto.Merkle
module Sha256 = Hashcrypto.Sha256

type keystore = {
  seed : string;
  key_height : int;
  keys : (Merkle.secret_key * Merkle.public_key) Asnum.Tbl.t;
}

let create_keystore ?(key_height = 8) ~seed () =
  { seed; key_height; keys = Asnum.Tbl.create 64 }

let enroll ks asn =
  if not (Asnum.Tbl.mem ks.keys asn) then begin
    let sk, pk =
      Merkle.generate ~seed:(ks.seed ^ "/router/" ^ Asnum.to_string asn) ~height:ks.key_height
    in
    Asnum.Tbl.replace ks.keys asn (sk, pk)
  end

let router_pubkey ks asn =
  Option.map snd (Asnum.Tbl.find_opt ks.keys asn)

type signed_route = {
  route : Route.t;
  target : Asnum.t;
  signatures : string list;
}

(* What each hop signs. The origin covers the prefix directly; later
   hops cover the previous signature's digest, chaining the whole
   path. Binding [signer] and [next] into the message prevents both
   origin forgery and replay toward a different neighbor. *)
let origin_message ~prefix ~origin ~next =
  String.concat "|"
    [ "bgpsec-origin"; Netaddr.Pfx.to_string prefix; Asnum.to_string origin; Asnum.to_string next ]

let hop_message ~prev_signature ~signer ~next =
  String.concat "|"
    [ "bgpsec-hop"; Sha256.to_hex (Sha256.digest prev_signature); Asnum.to_string signer;
      Asnum.to_string next ]

let sign ks asn msg =
  match Asnum.Tbl.find_opt ks.keys asn with
  | None -> Error (Asnum.to_string asn ^ " has no router signing key")
  | Some (sk, _) ->
    (match Merkle.sign sk msg with
     | sg -> Ok (Merkle.encode sg)
     | exception Failure e -> Error e)

let verify ks asn msg signature =
  match router_pubkey ks asn with
  | None -> Error (Asnum.to_string asn ^ " has no router key")
  | Some pk ->
    (match Merkle.decode signature with
     | Error e -> Error ("undecodable signature: " ^ e)
     | Ok sg ->
       if Merkle.verify pk msg sg then Ok ()
       else Error ("bad signature by " ^ Asnum.to_string asn))

let ( let* ) = Result.bind

let originate ks ~prefix ~origin ~to_ =
  let* signature = sign ks origin (origin_message ~prefix ~origin ~next:to_) in
  Ok { route = Route.originate prefix origin; target = to_; signatures = [ signature ] }

let forward ks sr ~by ~to_ =
  if not (Asnum.equal sr.target by) then
    Error
      (Printf.sprintf "%s cannot forward an announcement addressed to %s" (Asnum.to_string by)
         (Asnum.to_string sr.target))
  else if Route.loops_through sr.route by then Error "loop"
  else
    let prev_signature = List.hd sr.signatures in
    let* signature = sign ks by (hop_message ~prev_signature ~signer:by ~next:to_) in
    Ok
      { route = Route.prepend by sr.route;
        target = to_;
        signatures = signature :: sr.signatures }
  [@@lint.test_only "builds the multi-hop chains the tests hold validate to"]

let validate ks sr =
  (* Path: [a_k; ...; a_1] newest first; signatures align with it. The
     "next" of a_i's signature is a_{i+1} for i < k and [sr.target]
     for a_k. *)
  let path = sr.route.Route.as_path in
  if List.length path <> List.length sr.signatures then Error "signature count mismatch"
  else begin
    let rec go path signatures next =
      match path, signatures with
      | [ origin ], [ signature ] ->
        verify ks origin
          (origin_message ~prefix:sr.route.Route.prefix ~origin ~next)
          signature
      | signer :: rest_path, signature :: rest_sigs ->
        let prev_signature = List.hd rest_sigs in
        let* () = verify ks signer (hop_message ~prev_signature ~signer ~next) signature in
        go rest_path rest_sigs signer
      | _, _ -> Error "empty signed route"
    in
    go path sr.signatures sr.target
  end

let forge_origin ks ~prefix ~attacker ~victim ~to_ =
  enroll ks attacker;
  (* The attacker signs whatever it wants with its own key — including
     a fake "victim" origin segment — but cannot make the victim's
     signature. *)
  let fake_origin_sig =
    match sign ks attacker (origin_message ~prefix ~origin:victim ~next:attacker) with
    | Ok s -> s
    | Error _ -> ""
  in
  let hop_sig =
    match sign ks attacker (hop_message ~prev_signature:fake_origin_sig ~signer:attacker ~next:to_) with
    | Ok s -> s
    | Error _ -> ""
  in
  { route = Route.make_exn prefix [ attacker; victim ];
    target = to_;
    signatures = [ hop_sig; fake_origin_sig ] }

type t = { customer : Asnum.t; providers : Asnum.t list }

let make ~customer ~providers =
  if List.exists (Asnum.equal customer) providers then
    Error "an AS cannot attest itself as its own provider"
  else Ok { customer; providers = List.sort_uniq Asnum.compare providers }

let make_exn ~customer ~providers =
  match make ~customer ~providers with Ok a -> a | Error e -> invalid_arg e

(* --- verification --- *)

type db = Asnum.Set.t Asnum.Map.t

let db_of_list attestations =
  List.fold_left
    (fun db a ->
      let set = Asnum.Set.of_list a.providers in
      Asnum.Map.update a.customer
        (function Some s -> Some (Asnum.Set.union s set) | None -> Some set)
        db)
    Asnum.Map.empty attestations

type received_from = From_customer | From_peer | From_provider
type state = Path_valid | Path_invalid | Path_unknown

let pp_state ppf s =
  Format.pp_print_string ppf
    (match s with
     | Path_valid -> "Path-Valid"
     | Path_invalid -> "Path-Invalid"
     | Path_unknown -> "Path-Unknown")
  [@@lint.test_only "alcotest printer: test_aspa's state testable"]

type hop = Provider_plus | Not_provider | No_attestation

(* Is [p] an attested provider of [c]? *)
let hop_auth db ~customer:c ~provider:p =
  match Asnum.Map.find_opt c db with
  | None -> No_attestation
  | Some set -> if Asnum.Set.mem p set then Provider_plus else Not_provider

let rec collapse_prepends = function
  | a :: (b :: _ as rest) when Asnum.equal a b -> collapse_prepends rest
  | a :: rest -> a :: collapse_prepends rest
  | [] -> []

(* [as_path] newest-first; work origin-first internally. *)
let verify db ~received_from ~as_path =
  let path = Array.of_list (List.rev (collapse_prepends as_path)) in
  let k = Array.length path in
  if k = 0 then Path_invalid
  else begin
    (* up.(i): hop from path.(i) up to path.(i+1); down.(i): hop from
       path.(i+1) down to path.(i). *)
    let up = Array.init (k - 1) (fun i -> hop_auth db ~customer:path.(i) ~provider:path.(i + 1)) in
    let down = Array.init (k - 1) (fun i -> hop_auth db ~customer:path.(i + 1) ~provider:path.(i)) in
    let apex_ok ~strict j =
      (* Up-ramp over hops 0..j-2, down-ramp over hops j-1..k-2 (apex
         at position j-1, 1-based j in [1, k]). *)
      let hop_ok h = if strict then h = Provider_plus else h <> Not_provider in
      let rec ups i = i > j - 2 || (hop_ok up.(i) && ups (i + 1)) in
      let rec downs i = i > k - 2 || (hop_ok down.(i) && downs (i + 1)) in
      ups 0 && downs (j - 1)
    in
    let exists_apex ~strict =
      let rec go j = j <= k && (apex_ok ~strict j || go (j + 1)) in
      go 1
    in
    match received_from with
    | From_customer | From_peer ->
      (* Pure up-ramp: apex forced at the receiver end. *)
      if apex_ok ~strict:true k then Path_valid
      else if not (apex_ok ~strict:false k) then Path_invalid
      else Path_unknown
    | From_provider ->
      if exists_apex ~strict:true then Path_valid
      else if not (exists_apex ~strict:false) then Path_invalid
      else Path_unknown
  end

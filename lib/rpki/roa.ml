module Pfx = Netaddr.Pfx

type entry = { prefix : Pfx.t; max_len : int option }
type t = { asn : Asnum.t; entries : entry list }

let effective_max_len e =
  match e.max_len with Some m -> m | None -> Pfx.length e.prefix

let compare_entry a b =
  let c = Pfx.compare a.prefix b.prefix in
  if c <> 0 then c else Int.compare (effective_max_len a) (effective_max_len b)

let check_entry e =
  let l = Pfx.length e.prefix and b = Pfx.addr_bits e.prefix in
  match e.max_len with
  | None -> Ok ()
  | Some m when m >= l && m <= b -> Ok ()
  | Some m ->
    Error
      (Printf.sprintf "invalid maxLength %d for %s (must be in [%d, %d])" m
         (Pfx.to_string e.prefix) l b)

let make asn entries =
  if entries = [] then Error "a ROA must contain at least one prefix"
  else
    let rec check = function
      | [] ->
        let entries = List.sort_uniq compare_entry entries in
        Ok { asn; entries }
      | e :: rest ->
        (match check_entry e with
         | Ok () -> check rest
         | Error _ as err -> err)
    in
    check entries

let make_exn asn entries =
  match make asn entries with Ok r -> r | Error e -> invalid_arg e

let of_simple asn l =
  let ( let* ) = Result.bind in
  let rec parse acc = function
    | [] -> make asn (List.rev acc)
    | (s, max_len) :: rest ->
      let* prefix = Pfx.of_string s in
      parse ({ prefix; max_len } :: acc) rest
  in
  parse [] l

let asn r = r.asn
let entries r = r.entries

let vrps r =
  List.map (fun e -> Vrp.make_exn e.prefix ~max_len:(effective_max_len e) r.asn) r.entries

let uses_max_len r =
  List.exists (fun e -> effective_max_len e > Pfx.length e.prefix) r.entries

let authorized r p origin =
  Asnum.equal r.asn origin
  && (not (Asnum.is_zero r.asn))
  && List.exists
       (fun e -> Pfx.subset p e.prefix && Pfx.length p <= effective_max_len e)
       r.entries

let compare a b =
  let c = Asnum.compare a.asn b.asn in
  if c <> 0 then c else List.compare compare_entry a.entries b.entries

let equal a b = compare a b = 0

let pp ppf r =
  let pp_entry ppf e =
    match e.max_len with
    | Some m when m > Pfx.length e.prefix -> Format.fprintf ppf "%a-%d" Pfx.pp e.prefix m
    | Some _ | None -> Pfx.pp ppf e.prefix
  in
  Format.fprintf ppf "ROA:({%a}, %a)"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",@ ") pp_entry)
    r.entries Asnum.pp r.asn

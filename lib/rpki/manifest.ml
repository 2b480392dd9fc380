let content_type = [ 1; 2; 840; 113549; 1; 9; 16; 1; 26 ]

type entry = { file : string; digest : string }

type t = {
  number : int;
  this_update : int;
  next_update : int;
  entries : entry list;
}

let make ~number ~this_update ~next_update entries =
  if number < 0 then invalid_arg "Manifest.make: negative number";
  if next_update < this_update then invalid_arg "Manifest.make: window ends before it starts";
  List.iter
    (fun e ->
      if String.length e.digest <> 32 then invalid_arg "Manifest.make: digest must be SHA-256")
    entries;
  { number;
    this_update;
    next_update;
    entries = List.sort (fun a b -> String.compare a.file b.file) entries }

let digest_of t file =
  Option.map (fun e -> e.digest) (List.find_opt (fun e -> e.file = file) t.entries)

let encode_econtent t =
  Asn1.Der.encode
    (Asn1.Der.Sequence
       [ Asn1.Der.Integer (Int64.of_int t.number);
         Asn1.Der.Integer (Int64.of_int t.this_update);
         Asn1.Der.Integer (Int64.of_int t.next_update);
         Asn1.Der.Sequence
           (List.map
              (fun e ->
                Asn1.Der.Sequence [ Asn1.Der.Ia5_string e.file; Asn1.Der.Octet_string e.digest ])
              t.entries) ])

let ( let* ) = Result.bind

let decode_econtent bytes =
  let* v = Asn1.Der.decode bytes in
  let* parts = Asn1.Der.as_sequence v in
  match parts with
  | [ number; this_update; next_update; files ] ->
    let* number = Asn1.Der.as_int number in
    let* this_update = Asn1.Der.as_int this_update in
    let* next_update = Asn1.Der.as_int next_update in
    let* file_list = Asn1.Der.as_sequence files in
    let* entries =
      List.fold_left
        (fun acc f ->
          let* acc = acc in
          let* pair = Asn1.Der.as_sequence f in
          match pair with
          | [ Asn1.Der.Ia5_string file; digest ] ->
            let* digest = Asn1.Der.as_octet_string digest in
            if String.length digest <> 32 then Error "manifest digest is not SHA-256"
            else Ok ({ file; digest } :: acc)
          | _ -> Error "malformed manifest file entry")
        (Ok []) file_list
      |> Result.map List.rev
    in
    if number < 0 || next_update < this_update then Error "malformed manifest header"
    else Ok (make ~number ~this_update ~next_update entries)
  | _ -> Error "malformed manifest"

let stale t ~now = now > t.next_update

let equal a b =
  a.number = b.number && a.this_update = b.this_update && a.next_update = b.next_update
  && List.equal (fun (x : entry) y -> x.file = y.file && String.equal x.digest y.digest) a.entries b.entries
  [@@lint.test_only "alcotest equality: the eContent round trip"]

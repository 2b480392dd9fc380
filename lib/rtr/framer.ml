(* Largest PDU we will buffer. Prefix PDUs are tiny; only Error Report
   carries variable data, and RFC 8210 keeps those to one encapsulated
   PDU plus diagnostic text. 1 MiB is a generous terminal bound. *)
let max_pdu_size = 1 lsl 20

(* Whole PDUs are decoded in place from the chunk they arrive in; only
   a PDU that straddles chunks is buffered, in [part], until its last
   byte is in. So each byte fed is copied at most twice (into [part],
   then out of it for the decoder), and [feed] is linear in the bytes
   it is given however the stream is cut. *)
type t = {
  part : Buffer.t; (* the straddling PDU's bytes so far, fewer than its length *)
  mutable error : string option;
}

let create () = { part = Buffer.create 64; error = None }
let pending_bytes t = Buffer.length t.part
  [@@lint.test_only "witness: tests read the framer's buffered bytes"]
let failed t = t.error
  [@@lint.test_only "witness: tests read the framer's terminal error"]

let fail t e =
  t.error <- Some e;
  Buffer.reset t.part;
  Error e

(* The header's length field is checked as soon as the header is in,
   before any of the body is buffered. *)
let length_error length =
  if length < 8 then Some "PDU length below header size"
  else if length > max_pdu_size then Some "PDU length exceeds the stream bound"
  else None

let u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let byte b i = Char.code (Buffer.nth b i)

let part_length t =
  (byte t.part 4 lsl 24) lor (byte t.part 5 lsl 16) lor (byte t.part 6 lsl 8) lor byte t.part 7

(* Move bytes from [chunk] at [off] into [part] until it holds [upto]
   bytes or the chunk runs out; the new offset. *)
let fill t chunk off upto =
  let take = min (upto - Buffer.length t.part) (String.length chunk - off) in
  if take <= 0 then off
  else begin
    Buffer.add_substring t.part chunk off take;
    off + take
  end

(* Keep the tail of [chunk] from [off], shorter than one PDU, as the
   next straddling PDU; [acc] holds the PDUs completed by this chunk,
   newest first. *)
let keep_tail t chunk off acc =
  Buffer.add_substring t.part chunk off (String.length chunk - off);
  match acc with [] -> Ok [] | _ -> Ok (List.rev acc)

(* Decode every whole PDU of [chunk] from [off] on, in place. *)
let rec whole t chunk off acc =
  let n = String.length chunk in
  if n - off < 8 then keep_tail t chunk off acc
  else
    let length = u32 chunk (off + 4) in
    match length_error length with
    | Some e -> fail t e
    | None when n - off < length -> keep_tail t chunk off acc
    | None ->
      (match Pdu.decode chunk off with
       | Ok (pdu, next) -> whole t chunk next (pdu :: acc)
       | Error e -> fail t e)

let feed t chunk =
  match t.error with
  | Some e -> Error ("framer already failed: " ^ e)
  | None ->
    if Buffer.length t.part = 0 then whole t chunk 0 []
    else
      (* Complete the straddling PDU from the head of the chunk. *)
      let off = fill t chunk 0 8 in
      if Buffer.length t.part < 8 then Ok []
      else
        let length = part_length t in
        match length_error length with
        | Some e -> fail t e
        | None ->
          let off = fill t chunk off length in
          if Buffer.length t.part < length then Ok []
          else begin
            let wire = Buffer.contents t.part in
            Buffer.clear t.part;
            match Pdu.decode wire 0 with
            | Ok (pdu, _) -> whole t chunk off [ pdu ]
            | Error e -> fail t e
          end

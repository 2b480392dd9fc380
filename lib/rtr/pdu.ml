module Pfx = Netaddr.Pfx

let version = 1

type flags = Announce | Withdraw

type error_code =
  | Corrupt_data
  | Internal_error
  | No_data_available
  | Invalid_request
  | Unsupported_protocol_version
  | Unsupported_pdu_type
  | Withdrawal_of_unknown_record
  | Duplicate_announcement_received
  | Unexpected_protocol_version

let error_code_to_int = function
  | Corrupt_data -> 0
  | Internal_error -> 1
  | No_data_available -> 2
  | Invalid_request -> 3
  | Unsupported_protocol_version -> 4
  | Unsupported_pdu_type -> 5
  | Withdrawal_of_unknown_record -> 6
  | Duplicate_announcement_received -> 7
  | Unexpected_protocol_version -> 8

let error_code_of_int = function
  | 0 -> Some Corrupt_data
  | 1 -> Some Internal_error
  | 2 -> Some No_data_available
  | 3 -> Some Invalid_request
  | 4 -> Some Unsupported_protocol_version
  | 5 -> Some Unsupported_pdu_type
  | 6 -> Some Withdrawal_of_unknown_record
  | 7 -> Some Duplicate_announcement_received
  | 8 -> Some Unexpected_protocol_version
  | _ -> None

let error_code_to_string = function
  | Corrupt_data -> "Corrupt Data"
  | Internal_error -> "Internal Error"
  | No_data_available -> "No Data Available"
  | Invalid_request -> "Invalid Request"
  | Unsupported_protocol_version -> "Unsupported Protocol Version"
  | Unsupported_pdu_type -> "Unsupported PDU Type"
  | Withdrawal_of_unknown_record -> "Withdrawal of Unknown Record"
  | Duplicate_announcement_received -> "Duplicate Announcement Received"
  | Unexpected_protocol_version -> "Unexpected Protocol Version"

let pp_error_code ppf c = Format.pp_print_string ppf (error_code_to_string c)

type t =
  | Serial_notify of { session_id : int; serial : int32 }
  | Serial_query of { session_id : int; serial : int32 }
  | Reset_query
  | Cache_response of { session_id : int }
  | Prefix of { flags : flags; vrp : Rpki.Vrp.t }
  | End_of_data of {
      session_id : int;
      serial : int32;
      refresh_interval : int32;
      retry_interval : int32;
      expire_interval : int32;
    }
  | Cache_reset
  | Error_report of { code : error_code; erroneous_pdu : string; message : string }

let equal a b =
  match a, b with
  | Serial_notify x, Serial_notify y -> x.session_id = y.session_id && Int32.equal x.serial y.serial
  | Serial_query x, Serial_query y -> x.session_id = y.session_id && Int32.equal x.serial y.serial
  | Reset_query, Reset_query | Cache_reset, Cache_reset -> true
  | Cache_response x, Cache_response y -> x.session_id = y.session_id
  | Prefix x, Prefix y -> x.flags = y.flags && Rpki.Vrp.equal x.vrp y.vrp
  | End_of_data x, End_of_data y ->
    x.session_id = y.session_id && Int32.equal x.serial y.serial
    && Int32.equal x.refresh_interval y.refresh_interval
    && Int32.equal x.retry_interval y.retry_interval
    && Int32.equal x.expire_interval y.expire_interval
  | Error_report x, Error_report y ->
    x.code = y.code && String.equal x.erroneous_pdu y.erroneous_pdu && String.equal x.message y.message
  | ( ( Serial_notify _ | Serial_query _ | Reset_query | Cache_response _ | Prefix _
      | End_of_data _ | Cache_reset | Error_report _ ),
      _ ) ->
    false
  [@@lint.test_only "alcotest equality: the PDU testables"]

let pp ppf = function
  | Serial_notify { session_id; serial } ->
    Format.fprintf ppf "SerialNotify(session=%d, serial=%ld)" session_id serial
  | Serial_query { session_id; serial } ->
    Format.fprintf ppf "SerialQuery(session=%d, serial=%ld)" session_id serial
  | Reset_query -> Format.pp_print_string ppf "ResetQuery"
  | Cache_response { session_id } -> Format.fprintf ppf "CacheResponse(session=%d)" session_id
  | Prefix { flags; vrp } ->
    Format.fprintf ppf "Prefix(%s, %a)"
      (match flags with Announce -> "announce" | Withdraw -> "withdraw")
      Rpki.Vrp.pp vrp
  | End_of_data { session_id; serial; _ } ->
    Format.fprintf ppf "EndOfData(session=%d, serial=%ld)" session_id serial
  | Cache_reset -> Format.pp_print_string ppf "CacheReset"
  | Error_report { code; _ } -> Format.fprintf ppf "ErrorReport(%a)" pp_error_code code
  [@@lint.test_only "alcotest printer: the PDU testables"]

(* --- encoding helpers --- *)

let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let add_u16 buf v =
  add_u8 buf (v lsr 8);
  add_u8 buf v

let add_u32 buf v =
  add_u8 buf (Int32.to_int (Int32.shift_right_logical v 24));
  add_u8 buf (Int32.to_int (Int32.shift_right_logical v 16));
  add_u8 buf (Int32.to_int (Int32.shift_right_logical v 8));
  add_u8 buf (Int32.to_int v)

let add_u32i buf v = add_u32 buf (Int32.of_int v)

let header buf ~pdu_type ~field ~length =
  add_u8 buf version;
  add_u8 buf pdu_type;
  add_u16 buf field;
  add_u32i buf length

let v4_net p = Netaddr.Ipv4.to_int (Netaddr.Ipv4.Prefix.network p)

let encode_into buf pdu =
  (match pdu with
   | Serial_notify { session_id; serial } ->
     header buf ~pdu_type:0 ~field:session_id ~length:12;
     add_u32 buf serial
   | Serial_query { session_id; serial } ->
     header buf ~pdu_type:1 ~field:session_id ~length:12;
     add_u32 buf serial
   | Reset_query -> header buf ~pdu_type:2 ~field:0 ~length:8
   | Cache_response { session_id } -> header buf ~pdu_type:3 ~field:session_id ~length:8
   | Prefix { flags; vrp } ->
     let fl = match flags with Announce -> 1 | Withdraw -> 0 in
     (match vrp.Rpki.Vrp.prefix with
      | Pfx.V4 p ->
        header buf ~pdu_type:4 ~field:0 ~length:20;
        add_u8 buf fl;
        add_u8 buf (Netaddr.Ipv4.Prefix.length p);
        add_u8 buf vrp.Rpki.Vrp.max_len;
        add_u8 buf 0;
        add_u32i buf (v4_net p);
        add_u32i buf (Rpki.Asnum.to_int vrp.Rpki.Vrp.asn)
      | Pfx.V6 p ->
        header buf ~pdu_type:6 ~field:0 ~length:32;
        add_u8 buf fl;
        add_u8 buf (Netaddr.Ipv6.Prefix.length p);
        add_u8 buf vrp.Rpki.Vrp.max_len;
        add_u8 buf 0;
        let net = Netaddr.Ipv6.Prefix.network p in
        let add64 v =
          for i = 7 downto 0 do
            add_u8 buf (Int64.to_int (Int64.shift_right_logical v (i * 8)) land 0xff)
          done
        in
        add64 (Netaddr.Ipv6.high_bits net);
        add64 (Netaddr.Ipv6.low_bits net);
        add_u32i buf (Rpki.Asnum.to_int vrp.Rpki.Vrp.asn))
   | End_of_data { session_id; serial; refresh_interval; retry_interval; expire_interval } ->
     header buf ~pdu_type:7 ~field:session_id ~length:24;
     add_u32 buf serial;
     add_u32 buf refresh_interval;
     add_u32 buf retry_interval;
     add_u32 buf expire_interval
   | Cache_reset -> header buf ~pdu_type:8 ~field:0 ~length:8
   | Error_report { code; erroneous_pdu; message } ->
     let length = 8 + 4 + String.length erroneous_pdu + 4 + String.length message in
     header buf ~pdu_type:10 ~field:(error_code_to_int code) ~length;
     add_u32i buf (String.length erroneous_pdu);
     Buffer.add_string buf erroneous_pdu;
     add_u32i buf (String.length message);
     Buffer.add_string buf message)

let encode pdu =
  let buf = Buffer.create 32 in
  encode_into buf pdu;
  Buffer.contents buf

let encode_all pdus =
  let buf = Buffer.create 256 in
  List.iter (encode_into buf) pdus;
  Buffer.contents buf

(* --- decoding --- *)

let ( let* ) = Result.bind

let u8 s off = Char.code s.[off]
let u16 s off = (u8 s off lsl 8) lor u8 s (off + 1)

let u32 s off =
  Int32.logor
    (Int32.shift_left (Int32.of_int (u16 s off)) 16)
    (Int32.of_int (u16 s (off + 2)))

let u32i s off =
  (u8 s off lsl 24) lor (u8 s (off + 1) lsl 16) lor (u8 s (off + 2) lsl 8) lor u8 s (off + 3)

let decode s off =
  let n = String.length s in
  if n - off < 8 then Error "short header"
  else
    let ver = u8 s off in
    let pdu_type = u8 s (off + 1) in
    let field = u16 s (off + 2) in
    let length = u32i s (off + 4) in
    if ver <> version then Error (Printf.sprintf "unsupported protocol version %d" ver)
    else if length < 8 then Error "PDU length below header size"
    else if n - off < length then Error "short PDU body"
    else
      let fin v = Ok (v, off + length) in
      let body = off + 8 in
      match pdu_type with
      | 0 | 1 ->
        if length <> 12 then Error "bad length for serial PDU"
        else
          let serial = u32 s body in
          if pdu_type = 0 then fin (Serial_notify { session_id = field; serial })
          else fin (Serial_query { session_id = field; serial })
      | 2 -> if length <> 8 then Error "bad length for Reset Query" else fin Reset_query
      | 3 ->
        if length <> 8 then Error "bad length for Cache Response"
        else fin (Cache_response { session_id = field })
      | 4 ->
        if length <> 20 then Error "bad length for IPv4 Prefix"
        else
          let fl = u8 s body in
          if fl land lnot 1 <> 0 then Error "reserved flag bits set"
          else
            let plen = u8 s (body + 1) and mlen = u8 s (body + 2) in
            if u8 s (body + 3) <> 0 then Error "nonzero reserved byte"
            else if plen > 32 then Error "IPv4 prefix length > 32"
            else
              let addr = Netaddr.Ipv4.of_int32_bits (u32i s (body + 4)) in
              let p = Netaddr.Ipv4.Prefix.make addr plen in
              if Netaddr.Ipv4.to_int (Netaddr.Ipv4.Prefix.network p) <> Netaddr.Ipv4.to_int addr
              then Error "IPv4 prefix has host bits set"
              else
                let asn = Rpki.Asnum.of_int (u32i s (body + 8) land 0xffffffff) in
                (match Rpki.Vrp.make (Pfx.v4 p) ~max_len:mlen asn with
                 | Error e -> Error e
                 | Ok vrp ->
                   fin (Prefix { flags = (if fl = 1 then Announce else Withdraw); vrp }))
      | 6 ->
        if length <> 32 then Error "bad length for IPv6 Prefix"
        else
          let fl = u8 s body in
          if fl land lnot 1 <> 0 then Error "reserved flag bits set"
          else
            let plen = u8 s (body + 1) and mlen = u8 s (body + 2) in
            if u8 s (body + 3) <> 0 then Error "nonzero reserved byte"
            else if plen > 128 then Error "IPv6 prefix length > 128"
            else
              let get64 o =
                let v = ref 0L in
                for i = 0 to 7 do
                  v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (u8 s (o + i)))
                done;
                !v
              in
              let addr = Netaddr.Ipv6.make (get64 (body + 4)) (get64 (body + 12)) in
              let p = Netaddr.Ipv6.Prefix.make addr plen in
              if not (Netaddr.Ipv6.equal (Netaddr.Ipv6.Prefix.network p) addr) then
                Error "IPv6 prefix has host bits set"
              else
                let asn = Rpki.Asnum.of_int (u32i s (body + 20) land 0xffffffff) in
                (match Rpki.Vrp.make (Pfx.v6 p) ~max_len:mlen asn with
                 | Error e -> Error e
                 | Ok vrp ->
                   fin (Prefix { flags = (if fl = 1 then Announce else Withdraw); vrp }))
      | 7 ->
        if length <> 24 then Error "bad length for End of Data"
        else
          fin
            (End_of_data
               { session_id = field;
                 serial = u32 s body;
                 refresh_interval = u32 s (body + 4);
                 retry_interval = u32 s (body + 8);
                 expire_interval = u32 s (body + 12) })
      | 8 -> if length <> 8 then Error "bad length for Cache Reset" else fin Cache_reset
      | 10 ->
        if length < 16 then Error "bad length for Error Report"
        else
          (match error_code_of_int field with
           | None -> Error (Printf.sprintf "unknown error code %d" field)
           | Some code ->
             let pdu_len = u32i s body in
             if pdu_len < 0 || body + 4 + pdu_len + 4 > off + length then
               Error "Error Report: encapsulated PDU overruns"
             else
               let erroneous_pdu = String.sub s (body + 4) pdu_len in
               let text_off = body + 4 + pdu_len in
               let text_len = u32i s text_off in
               if text_off + 4 + text_len <> off + length then
                 Error "Error Report: text length mismatch"
               else
                 let message = String.sub s (text_off + 4) text_len in
                 fin (Error_report { code; erroneous_pdu; message }))
      | t -> Error (Printf.sprintf "unsupported PDU type %d" t)

let decode_all s =
  let rec go off acc =
    if off = String.length s then Ok (List.rev acc)
    else
      let* pdu, off = decode s off in
      go off (pdu :: acc)
  in
  go 0 []

module Asnum = Rpki.Asnum
module Wire = Bgp_wire

type open_msg = {
  version : int;
  asn : Asnum.t;
  hold_time : int;
  bgp_id : Netaddr.Ipv4.t;
}

type notification = { code : int; subcode : int; data : string }

let err_open_message = 2
let err_hold_timer_expired = 4
let err_fsm = 5
let err_cease = 6

type t =
  | Open of open_msg
  | Update of Wire.update
  | Notification of notification
  | Keepalive

let equal a b =
  match a, b with
  | Open x, Open y ->
    x.version = y.version && Asnum.equal x.asn y.asn && x.hold_time = y.hold_time
    && Netaddr.Ipv4.equal x.bgp_id y.bgp_id
  | Update x, Update y ->
    List.equal Netaddr.Pfx.equal x.Wire.withdrawn y.Wire.withdrawn
    && List.equal Netaddr.Pfx.equal x.Wire.announced y.Wire.announced
    && List.equal Asnum.equal x.Wire.as_path y.Wire.as_path
  | Notification x, Notification y ->
    x.code = y.code && x.subcode = y.subcode && String.equal x.data y.data
  | Keepalive, Keepalive -> true
  | (Open _ | Update _ | Notification _ | Keepalive), _ -> false

let pp ppf = function
  | Open o ->
    Format.fprintf ppf "OPEN(%a, hold=%d, id=%a)" Asnum.pp o.asn o.hold_time Netaddr.Ipv4.pp
      o.bgp_id
  | Update u ->
    Format.fprintf ppf "UPDATE(+%d/-%d)" (List.length u.Wire.announced)
      (List.length u.Wire.withdrawn)
  | Notification n -> Format.fprintf ppf "NOTIFICATION(%d/%d)" n.code n.subcode
  | Keepalive -> Format.pp_print_string ppf "KEEPALIVE"

let as_trans = 23456
let cap_four_octet_as = 65

let header_and buf msg_type body =
  Buffer.add_string buf (String.make 16 '\xff');
  let total = 19 + String.length body in
  Buffer.add_char buf (Char.chr ((total lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (total land 0xff));
  Buffer.add_char buf (Char.chr msg_type);
  Buffer.add_string buf body

let u16_bytes v = String.init 2 (fun i -> Char.chr ((v lsr ((1 - i) * 8)) land 0xff))
let u32_bytes v = String.init 4 (fun i -> Char.chr ((v lsr ((3 - i) * 8)) land 0xff))

let encode = function
  | Update u -> Wire.encode u
  | Keepalive ->
    let buf = Buffer.create 19 in
    header_and buf 4 "";
    Buffer.contents buf
  | Notification n ->
    let buf = Buffer.create 32 in
    header_and buf 3 (Printf.sprintf "%c%c%s" (Char.chr n.code) (Char.chr n.subcode) n.data);
    Buffer.contents buf
  | Open o ->
    if o.version <> 4 then invalid_arg "Bgp_msg.encode: only BGP-4";
    if o.hold_time < 0 || o.hold_time > 0xffff then invalid_arg "Bgp_msg.encode: bad hold time";
    let asn_int = Asnum.to_int o.asn in
    let my_as = if asn_int < 0x10000 then asn_int else as_trans in
    (* One optional parameter: capabilities, containing the 4-octet-AS
       capability (RFC 6793). *)
    let capability =
      Printf.sprintf "%c%c%s" (Char.chr cap_four_octet_as) (Char.chr 4) (u32_bytes asn_int)
    in
    let opt_param = Printf.sprintf "%c%c%s" (Char.chr 2) (Char.chr (String.length capability)) capability in
    let body =
      Printf.sprintf "%c%s%s%s%c%s" (Char.chr 4) (u16_bytes my_as) (u16_bytes o.hold_time)
        (u32_bytes (Netaddr.Ipv4.to_int o.bgp_id))
        (Char.chr (String.length opt_param))
        opt_param
    in
    let buf = Buffer.create 64 in
    header_and buf 1 body;
    Buffer.contents buf

let u8 s off = Char.code s.[off]
let u16 s off = (u8 s off lsl 8) lor u8 s (off + 1)
let u32 s off = (u16 s off lsl 16) lor u16 s (off + 2)

let ( let* ) = Result.bind

let decode_open s off length =
  (* [off] points at the body; [length] is the body length. *)
  if length < 10 then Error "short OPEN body"
  else
    let version = u8 s off in
    if version <> 4 then Error (Printf.sprintf "unsupported BGP version %d" version)
    else
      let my_as = u16 s (off + 1) in
      let hold_time = u16 s (off + 3) in
      if hold_time = 1 || hold_time = 2 then Error "hold time below 3 seconds"
      else
        let bgp_id = Netaddr.Ipv4.of_int32_bits (u32 s (off + 5)) in
        let opt_len = u8 s (off + 9) in
        if 10 + opt_len <> length then Error "OPEN optional parameters overrun"
        else begin
          (* Scan optional parameters for the 4-octet-AS capability. *)
          let four_octet = ref None in
          let rec params p =
            if p >= off + length then Ok ()
            else if p + 2 > off + length then Error "truncated optional parameter"
            else
              let ptype = u8 s p and plen = u8 s (p + 1) in
              if p + 2 + plen > off + length then Error "optional parameter overrun"
              else begin
                if ptype = 2 then begin
                  (* capabilities: sequence of (code, len, value) *)
                  let rec caps c =
                    if c >= p + 2 + plen then Ok ()
                    else if c + 2 > p + 2 + plen then Error "truncated capability"
                    else
                      let code = u8 s c and clen = u8 s (c + 1) in
                      if c + 2 + clen > p + 2 + plen then Error "capability overrun"
                      else begin
                        if code = cap_four_octet_as then
                          if clen = 4 then four_octet := Some (u32 s (c + 2))
                          else ();
                        caps (c + 2 + clen)
                      end
                  in
                  match caps (p + 2) with
                  | Error _ as e -> e
                  | Ok () -> params (p + 2 + plen)
                end
                else params (p + 2 + plen)
              end
          in
          let* () = params (off + 10) in
          let asn_int =
            match !four_octet with
            | Some real -> real
            | None -> my_as
          in
          if asn_int > (1 lsl 32) - 1 then Error "ASN out of range"
          else Ok (Open { version; asn = Asnum.of_int asn_int; hold_time; bgp_id })
        end

let decode s off =
  let n = String.length s in
  if n - off < 19 then Error "short BGP header"
  else if String.sub s off 16 <> String.make 16 '\xff' then Error "bad BGP marker"
  else
    let total = u16 s (off + 16) in
    let msg_type = u8 s (off + 18) in
    if total < 19 || total > Wire.max_message_size then Error "bad BGP message length"
    else if n - off < total then Error "short BGP message body"
    else
      let fin v = Ok (v, off + total) in
      match msg_type with
      | 1 ->
        let* v = decode_open s (off + 19) (total - 19) in
        fin v
      | 2 ->
        (* Delegate: Wire.decode expects exactly one whole message. *)
        let* u = Wire.decode (String.sub s off total) in
        fin (Update u)
      | 3 ->
        if total < 21 then Error "short NOTIFICATION"
        else
          fin
            (Notification
               { code = u8 s (off + 19);
                 subcode = u8 s (off + 20);
                 data = String.sub s (off + 21) (total - 21) })
      | 4 -> if total <> 19 then Error "KEEPALIVE must be header-only" else fin Keepalive
      | t -> Error (Printf.sprintf "unknown BGP message type %d" t)

let decode_all s =
  let rec go off acc =
    if off = String.length s then Ok (List.rev acc)
    else
      let* m, off = decode s off in
      go off (m :: acc)
  in
  go 0 []

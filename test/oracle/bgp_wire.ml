module Pfx = Netaddr.Pfx
module Asnum = Rpki.Asnum
module Route = Bgp.Route

type update = {
  withdrawn : Pfx.t list;
  announced : Pfx.t list;
  as_path : Asnum.t list;
}

let max_message_size = 4096
let header_size = 19
let msg_type_update = 2

let routes u = List.map (fun p -> Route.make_exn p u.as_path) u.announced
let of_route (r : Route.t) = { withdrawn = []; announced = [ r.Route.prefix ]; as_path = r.Route.as_path }

(* --- NLRI: 1-byte bit length + minimal prefix bytes --- *)

let nlri_bytes buf p =
  let len = Pfx.length p in
  Buffer.add_char buf (Char.chr len);
  let nbytes = (len + 7) / 8 in
  let byte = Bytes.make nbytes '\x00' in
  for i = 0 to len - 1 do
    if Pfx.bit p i then
      Bytes.set byte (i / 8) (Char.chr (Char.code (Bytes.get byte (i / 8)) lor (0x80 lsr (i mod 8))))
  done;
  Buffer.add_bytes buf byte

let read_nlri afi s off limit =
  if off >= limit then Error "truncated NLRI"
  else
    let len = Char.code s.[off] in
    let max_len = match afi with Pfx.Afi_v4 -> 32 | Pfx.Afi_v6 -> 128 in
    if len > max_len then Error (Printf.sprintf "NLRI length %d exceeds family maximum" len)
    else
      let nbytes = (len + 7) / 8 in
      if off + 1 + nbytes > limit then Error "truncated NLRI body"
      else begin
        let bit i = Char.code s.[off + 1 + (i / 8)] land (0x80 lsr (i mod 8)) <> 0 in
        (* Reject nonzero padding bits: they make NLRI non-canonical. *)
        let padding_ok =
          let rec check i = i >= nbytes * 8 || ((not (bit i)) && check (i + 1)) in
          check len
        in
        if not padding_ok then Error "NLRI has nonzero padding bits"
        else begin
          let p =
            match afi with
            | Pfx.Afi_v4 ->
              let a = ref Netaddr.Ipv4.zero in
              for i = 0 to len - 1 do
                if bit i then a := Netaddr.Ipv4.set_bit !a i true
              done;
              Pfx.v4 (Netaddr.Ipv4.Prefix.make !a len)
            | Pfx.Afi_v6 ->
              let a = ref Netaddr.Ipv6.zero in
              for i = 0 to len - 1 do
                if bit i then a := Netaddr.Ipv6.set_bit !a i true
              done;
              Pfx.v6 (Netaddr.Ipv6.Prefix.make !a len)
          in
          Ok (p, off + 1 + nbytes)
        end
      end

let read_nlri_list afi s off limit =
  let rec go off acc =
    if off = limit then Ok (List.rev acc)
    else
      match read_nlri afi s off limit with
      | Error _ as e -> e
      | Ok (p, off) -> go off (p :: acc)
  in
  go off []

(* --- attributes --- *)

let add_u16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let add_u32 buf v =
  add_u16 buf ((v lsr 16) land 0xffff);
  add_u16 buf (v land 0xffff)

let attribute buf ~flags ~typ ~value =
  let len = String.length value in
  if len > 255 then begin
    Buffer.add_char buf (Char.chr (flags lor 0x10)); (* extended length *)
    Buffer.add_char buf (Char.chr typ);
    add_u16 buf len
  end
  else begin
    Buffer.add_char buf (Char.chr flags);
    Buffer.add_char buf (Char.chr typ);
    Buffer.add_char buf (Char.chr len)
  end;
  Buffer.add_string buf value

let as_path_value path =
  let buf = Buffer.create (2 + (List.length path * 4)) in
  if path <> [] then begin
    if List.length path > 255 then invalid_arg "Bgp_wire.encode: AS path too long";
    Buffer.add_char buf '\x02'; (* AS_SEQUENCE *)
    Buffer.add_char buf (Char.chr (List.length path));
    List.iter (fun a -> add_u32 buf (Asnum.to_int a)) path
  end;
  Buffer.contents buf

let mp_reach_value v6 =
  let buf = Buffer.create 64 in
  add_u16 buf 2; (* AFI IPv6 *)
  Buffer.add_char buf '\x01'; (* SAFI unicast *)
  Buffer.add_char buf '\x10'; (* next-hop length 16 *)
  Buffer.add_string buf (String.make 16 '\x00');
  Buffer.add_char buf '\x00'; (* reserved *)
  List.iter (nlri_bytes buf) v6;
  Buffer.contents buf

let mp_unreach_value v6 =
  let buf = Buffer.create 32 in
  add_u16 buf 2;
  Buffer.add_char buf '\x01';
  List.iter (nlri_bytes buf) v6;
  Buffer.contents buf

let split_family l =
  (List.filter (fun p -> Pfx.afi p = Pfx.Afi_v4) l, List.filter (fun p -> Pfx.afi p = Pfx.Afi_v6) l)

let encode u =
  if u.announced <> [] && u.as_path = [] then
    invalid_arg "Bgp_wire.encode: announcements require an AS path";
  let withdrawn4, withdrawn6 = split_family u.withdrawn in
  let announced4, announced6 = split_family u.announced in
  let wbuf = Buffer.create 64 in
  List.iter (nlri_bytes wbuf) withdrawn4;
  let withdrawn_bytes = Buffer.contents wbuf in
  let abuf = Buffer.create 256 in
  if u.announced <> [] then begin
    attribute abuf ~flags:0x40 ~typ:1 ~value:"\x00" (* ORIGIN IGP *);
    attribute abuf ~flags:0x40 ~typ:2 ~value:(as_path_value u.as_path);
    if announced4 <> [] then attribute abuf ~flags:0x40 ~typ:3 ~value:(String.make 4 '\x00')
  end;
  if announced6 <> [] then attribute abuf ~flags:0x80 ~typ:14 ~value:(mp_reach_value announced6);
  if withdrawn6 <> [] then attribute abuf ~flags:0x80 ~typ:15 ~value:(mp_unreach_value withdrawn6);
  let attr_bytes = Buffer.contents abuf in
  let nbuf = Buffer.create 64 in
  List.iter (nlri_bytes nbuf) announced4;
  let nlri = Buffer.contents nbuf in
  let total =
    header_size + 2 + String.length withdrawn_bytes + 2 + String.length attr_bytes
    + String.length nlri
  in
  if total > max_message_size then invalid_arg "Bgp_wire.encode: message exceeds 4096 bytes";
  let buf = Buffer.create total in
  Buffer.add_string buf (String.make 16 '\xff');
  add_u16 buf total;
  Buffer.add_char buf (Char.chr msg_type_update);
  add_u16 buf (String.length withdrawn_bytes);
  Buffer.add_string buf withdrawn_bytes;
  add_u16 buf (String.length attr_bytes);
  Buffer.add_string buf attr_bytes;
  Buffer.add_string buf nlri;
  Buffer.contents buf

let ( let* ) = Result.bind

let u8 s off = Char.code s.[off]
let u16 s off = (u8 s off lsl 8) lor u8 s (off + 1)
let u32 s off = (u16 s off lsl 16) lor u16 s (off + 2)

let decode_as_path value =
  if value = "" then Ok []
  else if String.length value < 2 then Error "truncated AS_PATH"
  else begin
    let seg_type = u8 value 0 and count = u8 value 1 in
    if seg_type <> 2 then Error "only AS_SEQUENCE segments are supported"
    else if String.length value <> 2 + (count * 4) then Error "AS_PATH length mismatch"
    else begin
      let path = List.init count (fun i -> Asnum.of_int (u32 value (2 + (i * 4)))) in
      Ok path
    end
  end

let decode_mp_reach value =
  if String.length value < 5 then Error "truncated MP_REACH_NLRI"
  else
    let afi = u16 value 0 and safi = u8 value 2 and nh_len = u8 value 3 in
    if afi <> 2 || safi <> 1 then Error "unsupported AFI/SAFI in MP_REACH_NLRI"
    else if String.length value < 4 + nh_len + 1 then Error "truncated MP_REACH next hop"
    else read_nlri_list Pfx.Afi_v6 value (4 + nh_len + 1) (String.length value)

let decode_mp_unreach value =
  if String.length value < 3 then Error "truncated MP_UNREACH_NLRI"
  else
    let afi = u16 value 0 and safi = u8 value 2 in
    if afi <> 2 || safi <> 1 then Error "unsupported AFI/SAFI in MP_UNREACH_NLRI"
    else read_nlri_list Pfx.Afi_v6 value 3 (String.length value)

let decode s =
  let n = String.length s in
  if n < header_size then Error "short BGP header"
  else if String.sub s 0 16 <> String.make 16 '\xff' then Error "bad BGP marker"
  else
    let total = u16 s 16 in
    if total <> n then Error "BGP length field disagrees with input size"
    else if u8 s 18 <> msg_type_update then Error "not an UPDATE message"
    else if n < header_size + 4 then Error "truncated UPDATE"
    else
      let withdrawn_len = u16 s header_size in
      let wd_start = header_size + 2 in
      if wd_start + withdrawn_len + 2 > n then Error "withdrawn routes overrun"
      else
        let* withdrawn4 = read_nlri_list Pfx.Afi_v4 s wd_start (wd_start + withdrawn_len) in
        let attr_len_off = wd_start + withdrawn_len in
        let attr_len = u16 s attr_len_off in
        let attr_start = attr_len_off + 2 in
        if attr_start + attr_len > n then Error "path attributes overrun"
        else begin
          let rec parse_attrs off acc =
            if off = attr_start + attr_len then Ok acc
            else if off + 3 > attr_start + attr_len then Error "truncated attribute header"
            else
              let flags = u8 s off and typ = u8 s (off + 1) in
              let ext = flags land 0x10 <> 0 in
              let* len, body =
                if ext then
                  if off + 4 > attr_start + attr_len then Error "truncated extended length"
                  else Ok (u16 s (off + 2), off + 4)
                else Ok (u8 s (off + 2), off + 3)
              in
              if body + len > attr_start + attr_len then Error "attribute value overrun"
              else parse_attrs (body + len) ((typ, String.sub s body len) :: acc)
          in
          let* attrs = parse_attrs attr_start [] in
          let* announced4 = read_nlri_list Pfx.Afi_v4 s (attr_start + attr_len) n in
          let* as_path =
            match List.assoc_opt 2 attrs with
            | Some v -> decode_as_path v
            | None -> Ok []
          in
          let* announced6 =
            match List.assoc_opt 14 attrs with
            | Some v -> decode_mp_reach v
            | None -> Ok []
          in
          let* withdrawn6 =
            match List.assoc_opt 15 attrs with
            | Some v -> decode_mp_unreach v
            | None -> Ok []
          in
          let announced = announced4 @ announced6 in
          if announced <> [] && as_path = [] then Error "announcement without AS_PATH"
          else Ok { withdrawn = withdrawn4 @ withdrawn6; announced; as_path }
        end

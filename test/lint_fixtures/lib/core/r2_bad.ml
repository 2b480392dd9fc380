(* R2 fixture: unsafe / partial constructs that are banned inside the
   core libraries (lib/core, lib/rpki, lib/netaddr, lib/arena). *)

let sneaky_identity x = Obj.magic x

let to_bytes v = Marshal.to_string v []

let first xs = List.hd xs

let third xs = List.nth xs 2

let force o = Option.get o

let split s = Str.split (Str.regexp ",") s

(** RPKI manifests (RFC 6486/9286, simplified).

    A manifest is a signed object listing every file a CA currently
    publishes with its SHA-256 digest, plus a monotone manifest number
    and a validity window in logical time. Relying parties use it to
    detect withheld, replayed or substituted objects — the attacks
    {!Repository.drop_from_manifest} and {!Repository.tamper}
    simulate. *)

val content_type : int list
(** id-ct-rpkiManifest, 1.2.840.113549.1.9.16.1.26. *)

type entry = { file : string; digest : string (* raw SHA-256 *) }

type t = {
  number : int;  (** Monotone per CA. *)
  this_update : int;  (** Logical timestamps (the simulation has no wall clock). *)
  next_update : int;
  entries : entry list;
}

val make : number:int -> this_update:int -> next_update:int -> entry list -> t
(** Entries are kept sorted by file name. *)

val digest_of : t -> string -> string option
(** Digest listed for a file, if any. *)

val encode_econtent : t -> string
(** DER eContent for the signed-object envelope. *)

val decode_econtent : string -> (t, string) result

val stale : t -> now:int -> bool
(** [next_update] has passed: the relying party must treat the CA's
    publication point as unreliable. *)

val equal : t -> t -> bool

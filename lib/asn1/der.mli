(** Minimal ASN.1 DER encoder/decoder.

    Covers the subset of X.690 DER needed by the RFC 6482 ROA profile
    and the simulated certificate profile: definite lengths only,
    INTEGER (63-bit), BOOLEAN, NULL, OCTET STRING, BIT STRING (with
    unused-bit count, as ROA prefixes require), OBJECT IDENTIFIER,
    IA5String, SEQUENCE and context-specific constructed tags.

    Encoding is via a tree of {!t} values; decoding parses a byte
    string back into that tree and offers typed accessors. Decoding is
    strict: trailing garbage, non-minimal lengths and out-of-range
    values are errors, never crashes. *)

type t =
  | Boolean of bool
  | Integer of int64
  | Bit_string of int * string
      (** [(unused_bits, payload)]: a bit string of
          [8 * length payload - unused_bits] bits, most significant
          bit of each byte first. *)
  | Octet_string of string
  | Null
  | Oid of int list
  | Ia5_string of string
  | Sequence of t list
  | Set of t list
  | Context of int * t list  (** Constructed context-specific tag [n]. *)
  | Context_prim of int * string  (** Primitive context-specific tag [n]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val encode : t -> string
(** DER-encode a value. *)

val decode : string -> (t, string) result
(** Decode exactly one DER value occupying the whole input. *)

(** Typed accessors, for destructuring decoded values. Each returns an
    [Error] naming the expected shape when the value does not match. *)

val as_sequence : t -> (t list, string) result
val as_int : t -> (int, string) result
val as_octet_string : t -> (string, string) result
val as_bit_string : t -> (int * string, string) result
val as_oid : t -> (int list, string) result
val as_context : int -> t -> (t list, string) result

(** Low-level binary wire format.

    Primitives shared by the message codecs: LEB128 variable-length
    integers, length-prefixed strings and lists, and delta-encoded
    sorted integer sets (node sets are sorted, so consecutive deltas
    are small and encode in one byte each for realistic ids).

    Decoding never trusts its input: every malformed prefix raises
    {!Decode_error} with a position, and all length fields are checked
    against the remaining input before allocation. *)

exception Decode_error of string
(** Raised on malformed input; the message includes the byte offset. *)

type writer
(** Append-only output buffer. *)

val writer : unit -> writer

val contents : writer -> string

type reader
(** Cursor over an immutable input string. *)

val reader : string -> reader

val at_end : reader -> bool
(** Whether every byte has been consumed. *)

val expect_end : reader -> unit
(** @raise Decode_error when trailing bytes remain. *)

(** {1 Primitives} *)

val write_u8 : writer -> int -> unit
(** @raise Invalid_argument outside [\[0, 255\]]. *)

val read_u8 : reader -> int

val write_varint : writer -> int -> unit
(** Unsigned LEB128; the value must be non-negative.
    @raise Invalid_argument on negatives. *)

val read_varint : reader -> int
(** Inverse of {!write_varint}; accepts only the bytes it writes.
    @raise Decode_error on truncation and on any input that
    {!check_varint_byte} rejects. *)

val check_varint_byte : pos:int -> shift:int -> int -> unit
(** The bounds rule of every varint reader, {!read_varint} and
    {!Framing}'s length prefix alike: [byte], read at input offset
    [pos], is the varint's byte at bit offset [shift].  The varint must
    fit a non-negative [int] (at most nine bytes, the ninth without a
    continuation bit and below [0x40]) and be minimal (no zero final
    byte after the first).
    @raise Decode_error otherwise. *)

val write_bool : writer -> bool -> unit

val read_bool : reader -> bool

val write_string : writer -> string -> unit
(** Varint length prefix followed by the raw bytes. *)

val read_string : reader -> string

val write_list : writer -> ('a -> unit) -> 'a list -> unit
(** Varint count followed by the elements; the element writer is
    expected to close over the same {!writer}. *)

val read_list : reader -> (unit -> 'a) -> 'a list

val write_int_set : writer -> int list -> unit
(** Delta-encodes a strictly increasing list of non-negative integers.
    @raise Invalid_argument when the list is not strictly increasing or
    contains negatives. *)

val read_int_set : reader -> int list
(** Inverse of {!write_int_set}; the result is strictly increasing.
    @raise Decode_error on malformed input. *)

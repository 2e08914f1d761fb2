(** Versioned binary codecs for protocol messages.

    The simulator passes messages as OCaml values, but a deployment over
    a real transport needs a wire representation.  This module frames
    every protocol message as

    {v magic (1B) | version (1B) | kind (1B) | payload v}

    and encodes node sets with the delta compression of {!Wire}, so a
    round message costs a few bytes per border node — consistent with
    the abstract size accounting used by the experiments
    ({!Cliffedge.Message.units}).

    Codecs are polymorphic in the decision-value type through a
    {!value} codec pair; {!string_value} covers the common case. *)

type 'v value = {
  write : Wire.writer -> 'v -> unit;
  read : Wire.reader -> 'v;
}
(** How to put a decision value on the wire. *)

val string_value : string value

val int_value : int value

val encode : 'v value -> 'v Cliffedge.Message.t -> string
(** Frame and serialize one message. *)

val decode : 'v value -> string -> 'v Cliffedge.Message.t
(** Inverse of {!encode}; consumes the whole input.
    @raise Wire.Decode_error on anything malformed: bad magic,
    unsupported version, unknown kind, truncation, trailing bytes, an
    overflowing or non-minimal varint, or opinion ids out of order.
    With {!string_value} or {!int_value}, input that decodes re-encodes
    to the same bytes. *)

val version : int
(** Current wire version (encoded in every frame). *)

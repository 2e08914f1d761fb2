(** Stream framing.

    {!Codec} encodes one message to one byte string; a byte-stream
    transport (TCP, Unix sockets, pipes) additionally needs message
    boundaries.  Frames are varint-length-prefixed; the decoder is
    incremental and tolerates arbitrary chunking — a frame may arrive
    byte by byte, or many frames in one read. *)

val frame : string -> string
(** [frame payload] is the length prefix followed by the payload. *)

val max_frame_length : int
(** Upper bound accepted by the decoder (16 MiB): a corrupt prefix
    cannot make it buffer unboundedly. *)

type decoder
(** Incremental frame reassembler. *)

val decoder : unit -> decoder

val feed : decoder -> string -> string list
(** [feed d chunk] consumes the next chunk of the stream and returns the
    payloads of every frame completed by it, in stream order.
    @raise Wire.Decode_error when a length prefix exceeds
    {!max_frame_length} or breaks {!Wire.check_varint_byte}. *)

val pending_bytes : decoder -> int
(** Bytes buffered towards an incomplete frame. *)

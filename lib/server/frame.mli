(** Server-side codec for the [tlp.rpc/v2] binary framing.

    A v2 connection opens with the 5-byte {!hello}; the server echoes
    it, then both directions carry 4-byte big-endian length-prefixed
    frames (PROTOCOL.md §7). This is the only v2 codec: servers decode
    requests and encode responses with it, and the client
    ([Tlp_client.Frame], [Tlp_client.Client]) encodes requests and
    decodes responses with it. Request decoding validates through
    [Protocol]'s constructors, the same ones the v1 parser uses, so
    both framings refuse a request with the same error message. *)

val schema : string
(** ["tlp.rpc/v2"]. *)

val hello : string
(** The 5-byte connection preamble, ["\xf2TLP2"]. Sent by the client
    as its first bytes and echoed verbatim by the server. *)

val hello_byte : char
(** First byte of {!hello} ([0xf2]) — can never begin a v1 JSON
    frame, so one byte decides the protocol. *)

(** {1 Requests} *)

val encode_request : Tlp_util.Bytebuf.t -> Protocol.frame -> unit
(** Append one length-prefixed request frame. Every v2 request a
    client sends is encoded here. Raises [Invalid_argument] on a frame
    the binary layout cannot express: an id that is not
    null/int/string, or a negative value in an unsigned field (an
    [update] index). *)

val decode_request :
  Bytes.t ->
  pos:int ->
  len:int ->
  (Protocol.frame, Tlp_util.Json_out.t * Protocol.error) result
(** Decode one request payload (the bytes {e after} the length
    prefix). On error, returns the request id when it could be
    recovered so the error response stays correlated — malformed or
    truncated payloads yield a structured [bad_request], never an
    exception. *)

(** {1 Responses}

    Encoders append one length-prefixed response frame to the
    (pooled) write buffer. [result] is a pre-encoded
    [Tlp_util.Binval] value spliced verbatim — cache hits replay
    stored bytes, exactly like the v1 path. *)

val encode_ok :
  Tlp_util.Bytebuf.t ->
  id:Tlp_util.Json_out.t ->
  result:string ->
  trace:Tlp_util.Json_out.t option ->
  unit
(** [result] is pre-encoded Binval bytes (a cache entry's [v2]); the
    trace, when present, is appended after the result exactly like the
    v1 envelope's [trace] member. *)

val encode_ok_doc :
  Tlp_util.Bytebuf.t ->
  id:Tlp_util.Json_out.t ->
  doc:Tlp_util.Json_out.t ->
  trace:Tlp_util.Json_out.t option ->
  unit
(** As {!encode_ok} for an un-cached result tree: the document is
    Binval-encoded straight into the write buffer, no intermediate
    string. *)

val encode_error :
  Tlp_util.Bytebuf.t -> id:Tlp_util.Json_out.t -> Protocol.error -> unit

(** One decoded response payload. *)
type payload =
  | Result of {
      id : Tlp_util.Json_out.t;
      result : Tlp_util.Json_out.t;
      trace : Tlp_util.Json_out.t option;
    }
  | Rpc_err of {
      id : Tlp_util.Json_out.t;
      code : Protocol.error_code;
      message : string;
    }

val decode_response : string -> (payload, string) result
(** Decode one response payload (the bytes {e after} the 4-byte length
    prefix), the inverse of {!encode_ok}, {!encode_ok_doc} and
    {!encode_error}. Bounds-checked throughout: truncated or corrupt
    payloads are [Error], never an exception. *)

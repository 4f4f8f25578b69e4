(** Client side of the [tlp.rpc/v2] framing.

    There is one v2 codec, [Tlp_server.Frame]. This module builds its
    input from the same arguments {!Client.request_line} takes, so
    switching protocol never changes a call site. Responses are decoded
    with [Tlp_server.Frame.decode_response]. PROTOCOL.md §7 has the
    wire layout. *)

val schema : string
(** ["tlp.rpc/v2"]. *)

val hello : string
(** The 5-byte connection preamble, ["\xf2TLP2"]: the client's first
    bytes, echoed verbatim by the server before the first frame. *)

val request_json :
  ?id:Tlp_util.Json_out.t ->
  ?timeout_ms:int ->
  ?priority:string ->
  ?trace:bool ->
  meth:string ->
  ?params:Tlp_util.Json_out.t ->
  unit ->
  Tlp_util.Json_out.t
(** The request object: {!Client.request_line} is its rendering. *)

val encode_request :
  ?id:Tlp_util.Json_out.t ->
  ?timeout_ms:int ->
  ?priority:string ->
  ?trace:bool ->
  meth:string ->
  ?params:Tlp_util.Json_out.t ->
  unit ->
  (string, string) result
(** Encode one length-prefixed request frame from the same arguments
    as {!Client.request_line}: {!request_json}, validated by
    [Tlp_server.Protocol.frame_of_json], encoded by
    [Tlp_server.Frame.encode_request]. Instances may be inline objects
    or instance-file text, as in v1. [Error] carries the message a v1
    server would answer for the same request, or names a value the
    binary layout cannot carry (a negative [update] index); nothing
    was sent. *)

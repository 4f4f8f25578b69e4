(* Client side of the [tlp.rpc/v2] framing. The codec itself is
   [Tlp_server.Frame]; this module only turns call-site arguments into
   its input. A request is built as the JSON object [Client.request_line]
   renders, validated by [Protocol.frame_of_json] (the v1 parser after
   its JSON step) and encoded by the server's encoder: a request the
   client refuses gets exactly the message a v1 server would send, and
   every frame it emits is the server codec's own bytes. *)

module Json = Tlp_util.Json_out
module Bytebuf = Tlp_util.Bytebuf
module Protocol = Tlp_server.Protocol

let schema = Tlp_server.Frame.schema
let hello = Tlp_server.Frame.hello

let request_json ?id ?timeout_ms ?priority ?(trace = false) ~meth ?params () =
  let opt name to_json = function
    | Some v -> [ (name, to_json v) ]
    | None -> []
  in
  Json.Obj
    (opt "id" Fun.id id
    @ [ ("method", Json.String meth) ]
    @ opt "timeout_ms" (fun ms -> Json.Int ms) timeout_ms
    @ opt "priority" (fun p -> Json.String p) priority
    @ (if trace then [ ("trace", Json.Bool true) ] else [])
    @ opt "params" Fun.id params)

let encode_request ?id ?timeout_ms ?priority ?trace ~meth ?params () =
  match
    Protocol.frame_of_json
      (request_json ?id ?timeout_ms ?priority ?trace ~meth ?params ())
  with
  | Error (_, err) -> Error err.Protocol.message
  | Ok frame -> (
      let buf = Bytebuf.create 256 in
      match Tlp_server.Frame.encode_request buf frame with
      | () -> Ok (Bytebuf.contents buf)
      | exception Invalid_argument msg ->
          Error ("not expressible in tlp.rpc/v2: " ^ msg))

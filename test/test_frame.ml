(* The tlp.rpc/v2 binary framing: varint/decimal/Binval codec
   round trips, the PROTOCOL.md §7.6 golden frames, request-frame
   encode/decode round trips, v2-decoder refusals pinned to the v1
   parser's messages, the v1/v2 response differential (every status,
   every error code), decoder fuzz on truncated and corrupted frames,
   live loopback negotiation with cache-hit byte equality, and the
   solver workspace pool. *)

open Helpers
module Json = Tlp_util.Json_out
module Bytebuf = Tlp_util.Bytebuf
module R = Tlp_util.Bytebuf.Reader
module Binval = Tlp_util.Binval
module Rng = Tlp_util.Rng
module Chain = Tlp_graph.Chain
module Io = Tlp_graph.Instance_io
module Ksweep = Tlp_engine.Ksweep
module Protocol = Tlp_server.Protocol
module Handler = Tlp_server.Handler
module Workspaces = Tlp_server.Workspaces
module Server = Tlp_server.Server
module Sframe = Tlp_server.Frame
module Cframe = Tlp_client.Frame
module Client = Tlp_client.Client

(* ---------- fixtures ---------- *)

let chain5 = Chain.make ~alpha:[| 4; 2; 7; 3; 5 |] ~beta:[| 6; 2; 9; 4 |]

let ints l = Json.List (List.map (fun i -> Json.Int i) l)

let chain_obj =
  Json.Obj
    [
      ("kind", Json.String "chain");
      ("alpha", ints [ 4; 2; 7; 3; 5 ]);
      ("beta", ints [ 6; 2; 9; 4 ]);
    ]

let tree_obj =
  Json.Obj
    [
      ("kind", Json.String "tree");
      ("weights", ints [ 5; 3; 2; 4 ]);
      ( "parents",
        Json.List [ ints [ 0; 7 ]; ints [ 0; 2 ]; ints [ 1; 3 ] ] );
    ]

let partition_params ?algorithm ~instance ~k () =
  Json.Obj
    ((match algorithm with
     | Some a -> [ ("algorithm", Json.String a) ]
     | None -> [])
    @ [ ("instance", instance); ("k", Json.Int k) ])

(* ---------- codec round trips ---------- *)

let test_varint_round_trip =
  qcheck "varint round trip"
    QCheck2.Gen.(oneof [ int_range 0 1000; int_range 0 max_int ])
    (fun v ->
      let buf = Bytebuf.create 16 in
      Bytebuf.add_varint buf v;
      let r =
        R.make (Bytebuf.unsafe_bytes buf) ~pos:0 ~limit:(Bytebuf.length buf)
      in
      R.varint r = v && R.remaining r = 0)

(* Wire varints are confined to [0, max_int] (the reader rejects a
   set sign bit), so zigzag's encodable domain is [min_int/2,
   max_int/2]: outside it the doubled magnitude overflows and the
   writer raises. Decoded values can never leave that domain, so
   encode and decode cover exactly the same ints; the generators stay
   inside it, and a dedicated case pins the boundary behavior. *)
let zigzag_min = min_int asr 1
let zigzag_max = max_int asr 1
let encodable_int = QCheck2.Gen.int_range zigzag_min zigzag_max

let test_zigzag_round_trip =
  qcheck "zigzag round trip"
    QCheck2.Gen.(oneof [ int_range (-1000) 1000; encodable_int ])
    (fun v ->
      let buf = Bytebuf.create 16 in
      Bytebuf.add_zigzag buf v;
      let r =
        R.make (Bytebuf.unsafe_bytes buf) ~pos:0 ~limit:(Bytebuf.length buf)
      in
      R.zigzag r = v && R.remaining r = 0)

let test_zigzag_domain_bounds () =
  let round_trips v =
    let buf = Bytebuf.create 16 in
    match Bytebuf.add_zigzag buf v with
    | () ->
        let r =
          R.make (Bytebuf.unsafe_bytes buf) ~pos:0 ~limit:(Bytebuf.length buf)
        in
        R.zigzag r = v
    | exception Invalid_argument _ -> false
  in
  check_bool "domain max round trips" true (round_trips zigzag_max);
  check_bool "domain min round trips" true (round_trips zigzag_min);
  check_bool "beyond max refused" false (round_trips (zigzag_max + 1));
  check_bool "beyond min refused" false (round_trips (zigzag_min - 1))

let test_decimal_matches_string_of_int =
  qcheck "add_decimal = string_of_int"
    QCheck2.Gen.(
      oneof
        [
          int;
          oneofl [ 0; -1; 9; 10; 99; 100; min_int; max_int; min_int + 1 ];
        ])
    (fun v ->
      let buf = Bytebuf.create 4 in
      Bytebuf.add_decimal buf v;
      Bytebuf.contents buf = string_of_int v)

let test_varint_reader_rejects () =
  let decodes s =
    let b = Bytes.of_string s in
    let r = R.make b ~pos:0 ~limit:(Bytes.length b) in
    match R.varint r with v -> Some v | exception R.Short -> None
  in
  check_bool "empty input" true (decodes "" = None);
  check_bool "dangling continuation" true (decodes "\x80" = None);
  check_bool "eleven groups" true
    (decodes "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01" = None);
  (* Ten groups whose top bits land in the sign bit: must be refused,
     not wrapped to a negative length. *)
  check_bool "sign-bit overflow" true
    (decodes "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f" = None);
  check_bool "max_int decodes" true
    (let buf = Bytebuf.create 16 in
     Bytebuf.add_varint buf max_int;
     decodes (Bytebuf.contents buf) = Some max_int)

(* Random JSON-ish document: every Binval tag, nested a few levels. *)
let json_gen =
  let open QCheck2.Gen in
  sized_size (int_range 0 3) @@ fix (fun self n ->
      let scalar =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) encodable_int;
            map (fun f -> Json.Float f)
              (oneof [ float; return 0.1; return 1e-300; return (-0.0) ]);
            map (fun s -> Json.String s) (small_string ~gen:printable);
          ]
      in
      if n = 0 then scalar
      else
        oneof
          [
            scalar;
            map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n - 1)));
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_range 0 4)
                 (pair (small_string ~gen:printable) (self (n - 1))));
          ])

let test_binval_round_trip =
  qcheck "binval round trip" json_gen (fun doc ->
      let buf = Bytebuf.create 64 in
      Binval.write buf doc;
      let r =
        R.make (Bytebuf.unsafe_bytes buf) ~pos:0 ~limit:(Bytebuf.length buf)
      in
      match Binval.read r with
      | Ok doc' -> Json.to_string doc = Json.to_string doc' && R.remaining r = 0
      | Error _ -> false)

let test_binval_float_exact () =
  (* Floats cross the v2 wire as IEEE bits, not decimal text: the bit
     pattern must survive exactly, including negative zero. *)
  List.iter
    (fun f ->
      let buf = Bytebuf.create 16 in
      Binval.write buf (Json.Float f);
      let r =
        R.make (Bytebuf.unsafe_bytes buf) ~pos:0 ~limit:(Bytebuf.length buf)
      in
      match Binval.read r with
      | Ok (Json.Float f') ->
          check_bool
            (Printf.sprintf "bits of %h" f)
            true
            (Int64.bits_of_float f = Int64.bits_of_float f')
      | _ -> Alcotest.failf "float %h did not round trip" f)
    [ 0.1; -0.0; 1e-300; 1e300; 4.0 /. 3.0; Float.pi; Float.min_float ]

(* ---------- digest parity ---------- *)

(* [Protocol.instance_digest] renders into a Bytebuf and hashes in
   place; it must equal the digest of the canonical string for every
   instance, or cache keys would silently diverge from v1 behavior. *)
let test_digest_parity_chain =
  qcheck "instance digest = MD5(canonical text), chains" small_chain_gen
    (fun (c, _k) ->
      let i = Io.Chain_instance c in
      Protocol.instance_digest i
      = Digest.to_hex (Digest.string (Protocol.canonical_instance i)))

let test_digest_parity_tree =
  qcheck "instance digest = MD5(canonical text), trees" small_tree_gen
    (fun (t, _k) ->
      let i = Io.Tree_instance t in
      Protocol.instance_digest i
      = Digest.to_hex (Digest.string (Protocol.canonical_instance i)))

(* ---------- request encoding ---------- *)

let hex s =
  let digits = String.concat "" (String.split_on_char ' ' s) in
  String.init
    (String.length digits / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub digits (2 * i) 2)))

let index_sub s sub from =
  let n = String.length sub in
  let rec go i = if String.sub s i n = sub then i else go (i + 1) in
  go from

(* The golden frames are read from PROTOCOL.md §7.6, the one copy the
   CI smoke test also replays against a live server: the §6.1
   transcript's id:2 partition, its untraced ok response, the same
   request with k 0 as id 3 (a frame only a hand-built encoder can
   send) and its bad_request. [C:]/[S:] start a frame, indented lines
   continue it, [#] starts a comment. *)
let protocol_frames () =
  let doc = In_channel.with_open_bin "../PROTOCOL.md" In_channel.input_all in
  let start = index_sub doc "```" (index_sub doc "### 7.6" 0) + 3 in
  let block = String.sub doc start (index_sub doc "```" start - start) in
  String.split_on_char '\n' block
  |> List.fold_left
       (fun frames line ->
         let line = List.hd (String.split_on_char '#' line) in
         if String.length line > 2 && (line.[0] = 'C' || line.[0] = 'S')
            && line.[1] = ':'
         then String.sub line 2 (String.length line - 2) :: frames
         else if String.trim line = "" then frames
         else
           match frames with
           | frame :: rest -> (frame ^ line) :: rest
           | [] -> Alcotest.failf "PROTOCOL.md 7.6: stray line %S" line)
       []
  |> List.rev_map hex

let transcript_chain =
  Json.Obj
    [
      ("kind", Json.String "chain");
      ("alpha", ints [ 12; 7; 9; 14; 6 ]);
      ("beta", ints [ 40; 3; 25; 8 ]);
    ]

let v1_frame line =
  match Protocol.parse_frame line with
  | Ok f -> f
  | Error (_, e) -> Alcotest.failf "v1 parse of %s failed: %s" line e.Protocol.message

let decode_frame frame =
  Sframe.decode_request (Bytes.of_string frame) ~pos:4
    ~len:(String.length frame - 4)

let encode_payload f =
  let buf = Bytebuf.create 256 in
  f buf;
  Bytebuf.contents buf

let test_golden_frames () =
  let golden_request, golden_ok, golden_k0_request, golden_k0_error =
    match protocol_frames () with
    | [ a; b; c; d ] -> (a, b, c, d)
    | frames ->
        Alcotest.failf "PROTOCOL.md 7.6 holds %d frames, not 4"
          (List.length frames)
  in
  let params k =
    partition_params ~algorithm:"bandwidth" ~instance:transcript_chain ~k ()
  in
  let line id k =
    Client.request_line ~id:(Json.Int id) ~meth:"partition" ~params:(params k) ()
  in
  (match
     Cframe.encode_request ~id:(Json.Int 2) ~meth:"partition" ~params:(params 21)
       ()
   with
  | Ok bytes -> Alcotest.(check string) "request bytes" golden_request bytes
  | Error msg -> Alcotest.failf "transcript request refused: %s" msg);
  let frame = v1_frame (line 2 21) in
  check_bool "request decodes to the v1 frame" true
    (decode_frame golden_request = Ok frame);
  let doc =
    match
      Handler.partition_result
        (Io.Chain_instance
           (Chain.make ~alpha:[| 12; 7; 9; 14; 6 |] ~beta:[| 40; 3; 25; 8 |]))
        ~k:21 ~algorithm:Protocol.Bandwidth
    with
    | Ok doc -> doc
    | Error _ -> Alcotest.fail "transcript partition failed"
  in
  Alcotest.(check string) "ok response bytes" golden_ok
    (encode_payload (fun buf ->
         Sframe.encode_ok_doc buf ~id:(Json.Int 2) ~doc ~trace:None));
  let err =
    match Protocol.parse_frame (line 3 0) with
    | Error (Json.Int 3, err) -> err
    | _ -> Alcotest.fail "k 0 must be refused by the v1 parser"
  in
  check_bool "k 0 frame refused like v1" true
    (decode_frame golden_k0_request = Error (Json.Int 3, err));
  Alcotest.(check string) "bad_request response bytes" golden_k0_error
    (encode_payload (fun buf -> Sframe.encode_error buf ~id:(Json.Int 3) err));
  check_bool "client refuses k 0 with the v1 message" true
    (Cframe.encode_request ~id:(Json.Int 3) ~meth:"partition" ~params:(params 0)
       ()
    = Error err.Protocol.message)

(* Every request shape through the client encoder: the server's decoder
   must give back exactly the frame the v1 parser builds from the same
   arguments, and re-encoding that frame must reproduce the bytes. *)
let request_cases =
  [
    ("partition default algorithm", None, None, None, false, "partition",
     Some (partition_params ~instance:chain_obj ~k:9 ()));
    ("partition bottleneck traced", Some (Json.Int 2), None, None, true,
     "partition",
     Some (partition_params ~algorithm:"bottleneck" ~instance:chain_obj ~k:9 ()));
    ("partition procmin on a tree", Some (Json.String "t"), None, None, false,
     "partition",
     Some (partition_params ~algorithm:"procmin" ~instance:tree_obj ~k:9 ()));
    ("partition pipeline with timeout", Some (Json.Int 3), Some 250, None,
     false, "partition",
     Some (partition_params ~algorithm:"pipeline" ~instance:chain_obj ~k:12 ()));
    ("partition batch priority", Some (Json.Int 4), None, Some "batch", false,
     "partition",
     Some (partition_params ~instance:chain_obj ~k:9 ()));
    ("sweep default algorithm", Some (Json.Int 5), None, None, false, "sweep",
     Some
       (Json.Obj
          [ ("instance", chain_obj); ("k_values", ints [ 7; 9; 12 ]) ]));
    ("sweep deque", Some (Json.Int 6), None, None, false, "sweep",
     Some
       (Json.Obj
          [
            ("algorithm", Json.String "deque");
            ("instance", chain_obj);
            ("k_values", ints [ 8; 9 ]);
          ]));
    ("verify defaults", Some (Json.Int 7), None, None, false, "verify", None);
    ("verify explicit", Some (Json.Int 8), None, None, false, "verify",
     Some (Json.Obj [ ("rounds", Json.Int 7); ("seed", Json.Int (-3)) ]));
    ("stats", Some (Json.Int 9), None, None, false, "stats", None);
    ("health", None, None, None, false, "health", None);
    ("cluster", Some (Json.Int 10), None, None, false, "cluster", None);
    ("sleep", Some (Json.Int 11), Some 50, None, false, "sleep",
     Some (Json.Obj [ ("ms", Json.Int 20) ]));
    ("open named tree", Some (Json.Int 12), None, None, false, "open",
     Some (Json.Obj [ ("instance", tree_obj); ("session", Json.String "s") ]));
    ("open unnamed chain", Some (Json.Int 13), None, None, false, "open",
     Some (Json.Obj [ ("instance", chain_obj) ]));
    ("update", Some (Json.Int 14), None, None, false, "update",
     Some
       (Json.Obj
          [
            ("session", Json.String "s");
            ( "deltas",
              Json.List
                [
                  Json.List [ Json.String "vertex"; Json.Int 0; Json.Int (-3) ];
                  Json.List [ Json.String "edge"; Json.Int 2; Json.Int 4 ];
                ] );
          ]));
    ("resolve procmin", Some (Json.Int 15), None, None, false, "resolve",
     Some
       (Json.Obj
          [
            ("session", Json.String "s");
            ("k", Json.Int 9);
            ("algorithm", Json.String "procmin");
          ]));
  ]

let test_request_frames_round_trip () =
  List.iter
    (fun (label, id, timeout_ms, priority, trace, meth, params) ->
      let bytes =
        match
          Cframe.encode_request ?id ?timeout_ms ?priority ~trace ~meth ?params
            ()
        with
        | Ok s -> s
        | Error msg -> Alcotest.failf "%s: encoder refused: %s" label msg
      in
      let frame =
        v1_frame
          (Client.request_line ?id ?timeout_ms ?priority ~trace ~meth ?params ())
      in
      check_bool (label ^ ": decodes to the v1 frame") true
        (decode_frame bytes = Ok frame);
      Alcotest.(check string)
        (label ^ ": re-encodes to the same bytes")
        bytes
        (encode_payload (fun buf -> Sframe.encode_request buf frame)))
    request_cases

(* Encoder and decoder are inverses on every frame the validator
   accepts: random instances, k, algorithm, id and flag bits. *)
let test_request_frame_property =
  let open QCheck2.Gen in
  let instance =
    oneof
      [
        map (fun (c, k) -> (Io.Chain_instance c, k)) small_chain_gen;
        map (fun (t, k) -> (Io.Tree_instance t, k)) small_tree_gen;
      ]
  in
  let gen =
    let* instance, k = instance in
    let* algorithm =
      oneofl Protocol.[ Bandwidth; Bottleneck; Procmin; Pipeline ]
    in
    let* id =
      oneof
        [
          return Json.Null;
          map (fun i -> Json.Int i) encodable_int;
          map (fun s -> Json.String s) (small_string ~gen:printable);
        ]
    in
    let* timeout_ms = opt (int_range 0 100_000) in
    let* batch = bool in
    let* trace = bool in
    return
      {
        Protocol.id;
        request = Protocol.partition ~instance ~k ~algorithm;
        timeout_ms;
        priority = (if batch then Protocol.Batch else Protocol.Interactive);
        trace;
      }
  in
  qcheck "request frame encode/decode round trip" gen (fun frame ->
      decode_frame (encode_payload (fun buf -> Sframe.encode_request buf frame))
      = Ok frame)

(* Instance-file text is a spelling, not a different request: it
   encodes to the inline object's bytes. *)
let test_text_instance_encodes_inline () =
  let encode instance =
    match
      Cframe.encode_request ~id:(Json.Int 1) ~meth:"partition"
        ~params:(partition_params ~instance ~k:9 ())
        ()
    with
    | Ok s -> s
    | Error msg -> Alcotest.failf "refused: %s" msg
  in
  Alcotest.(check string) "chain text = inline" (encode chain_obj)
    (encode (Json.String (Io.to_string (Io.Chain_instance chain5))));
  Alcotest.(check string) "tree text = inline" (encode tree_obj)
    (encode (Json.String "tree\n5 3 2 4\n0 1 7\n0 2 2\n1 3 3\n"))

(* The client encoder refuses these requests before encoding, so the
   decoder's refusals are pinned with hand-built payloads: each must
   carry the message the v1 parser gives for the same request. *)
let add_chain5 buf =
  Bytebuf.add_u8 buf 1;
  Bytebuf.add_varint buf 5;
  List.iter (Bytebuf.add_varint buf) [ 4; 2; 7; 3; 5; 6; 2; 9; 4 ]

let add_tree4 buf =
  Bytebuf.add_u8 buf 2;
  Bytebuf.add_varint buf 4;
  List.iter (Bytebuf.add_varint buf)
    [ 5; 3; 2; 4; 0; 1; 7; 0; 2; 2; 1; 3; 3 ]

let test_decoder_refusals_match_v1 () =
  let cases =
    [
      ( "k 0", 1,
        (fun buf ->
          Bytebuf.add_u8 buf 1;
          Bytebuf.add_varint buf 0;
          add_chain5 buf),
        "partition",
        partition_params ~instance:chain_obj ~k:0 () );
      ( "empty k_values", 2,
        (fun buf ->
          Bytebuf.add_u8 buf 1;
          Bytebuf.add_varint buf 0;
          add_chain5 buf),
        "sweep",
        Json.Obj [ ("instance", chain_obj); ("k_values", ints []) ] );
      ( "rounds 0", 3,
        (fun buf ->
          Bytebuf.add_varint buf 0;
          Bytebuf.add_zigzag buf 1),
        "verify",
        Json.Obj [ ("rounds", Json.Int 0) ] );
      ( "rounds 10001", 3,
        (fun buf ->
          Bytebuf.add_varint buf 10_001;
          Bytebuf.add_zigzag buf 1),
        "verify",
        Json.Obj [ ("rounds", Json.Int 10_001) ] );
      ( "sleep 60001", 6,
        (fun buf -> Bytebuf.add_varint buf 60_001),
        "sleep",
        Json.Obj [ ("ms", Json.Int 60_001) ] );
      ( "empty deltas", 9,
        (fun buf ->
          Bytebuf.add_varint buf 1;
          Bytebuf.add_string buf "s";
          Bytebuf.add_varint buf 0),
        "update",
        Json.Obj [ ("session", Json.String "s"); ("deltas", Json.List []) ] );
      ( "tree in a sweep", 2,
        (fun buf ->
          Bytebuf.add_u8 buf 1;
          Bytebuf.add_varint buf 1;
          Bytebuf.add_varint buf 9;
          add_tree4 buf),
        "sweep",
        Json.Obj [ ("instance", tree_obj); ("k_values", ints [ 9 ]) ] );
    ]
  in
  List.iter
    (fun (label, meth_tag, body, meth, params) ->
      let payload =
        encode_payload (fun buf ->
            Bytebuf.add_u8 buf meth_tag;
            Bytebuf.add_u8 buf 1;
            Bytebuf.add_zigzag buf 1;
            Bytebuf.add_u8 buf 0;
            body buf)
      in
      let v1 =
        match
          Protocol.parse_frame
            (Client.request_line ~id:(Json.Int 1) ~meth ~params ())
        with
        | Error (_, e) -> e
        | Ok _ -> Alcotest.failf "%s: v1 accepted" label
      in
      match
        Sframe.decode_request (Bytes.of_string payload) ~pos:0
          ~len:(String.length payload)
      with
      | Error (Json.Int 1, e) ->
          check_bool (label ^ ": bad_request") true
            (e.Protocol.code = Protocol.Bad_request);
          Alcotest.(check string) label v1.Protocol.message e.Protocol.message
      | Error _ -> Alcotest.failf "%s: id not recovered" label
      | Ok _ -> Alcotest.failf "%s: v2 accepted" label)
    cases

(* ---------- response differential (unit, deterministic) ---------- *)

let decode_payload payload =
  match Sframe.decode_response payload with
  | Ok p -> p
  | Error msg -> Alcotest.failf "response decode failed: %s" msg

let encode_response f =
  let s = encode_payload f in
  String.sub s 4 (String.length s - 4)

let test_error_frames_differential () =
  List.iter
    (fun make_err ->
      let err = make_err "boom: details" in
      let id = Json.Int 42 in
      (* v2: server encoder -> client decoder. *)
      let payload =
        encode_response (fun buf -> Sframe.encode_error buf ~id err)
      in
      (match decode_payload payload with
      | Sframe.Rpc_err { id = id'; code; message } ->
          check_bool "id echoed" true (id' = id);
          check_bool "decodes to the encoded error" true
            ({ Protocol.code; message } = err)
      | Sframe.Result _ -> Alcotest.fail "error frame decoded as result");
      (* v1: same error through the JSON envelope. *)
      match Client.classify_response (Protocol.render_error ~id err) with
      | Error (Client.Overloaded m) ->
          check_bool "v1 overloaded" true (err.Protocol.code = Protocol.Overloaded);
          Alcotest.(check string) "v1 message" err.Protocol.message m
      | Error (Client.Timeout m) ->
          check_bool "v1 timeout" true (err.Protocol.code = Protocol.Timeout);
          Alcotest.(check string) "v1 message" err.Protocol.message m
      | Error (Client.Rpc_error { code; message }) ->
          Alcotest.(check string)
            "v1 code" (Protocol.error_code_string err.Protocol.code) code;
          Alcotest.(check string) "v1 message" err.Protocol.message message
      | _ -> Alcotest.fail "v1 error did not classify as an rpc error")
    [ Protocol.bad_request; Protocol.overloaded; Protocol.timeout;
      Protocol.internal; Protocol.unavailable ]

let test_ok_frames_differential () =
  let doc =
    match
      Handler.partition_result (Io.Chain_instance chain5) ~k:9
        ~algorithm:Protocol.Bandwidth
    with
    | Ok doc -> doc
    | Error _ -> Alcotest.fail "reference partition failed"
  in
  let trace = Json.Obj [ ("spans", ints [ 1; 2 ]); ("us", Json.Float 0.5) ] in
  let id = Json.String "req-1" in
  (* Plain result. *)
  (match
     decode_payload
       (encode_response (fun buf ->
            Sframe.encode_ok_doc buf ~id ~doc ~trace:None))
   with
  | Sframe.Result { id = id'; result; trace = None } ->
      check_bool "id echoed" true (id' = id);
      Alcotest.(check string) "result equal" (Json.to_string doc)
        (Json.to_string result)
  | _ -> Alcotest.fail "ok frame did not decode as plain result");
  (* Traced result; also check the pre-encoded splice path produces the
     same bytes as the direct-document path. *)
  let spliced =
    let b = Bytebuf.create 64 in
    Binval.write b doc;
    Bytebuf.contents b
  in
  let via_doc =
    encode_response (fun buf ->
        Sframe.encode_ok_doc buf ~id ~doc ~trace:(Some trace))
  in
  let via_splice =
    encode_response (fun buf ->
        Sframe.encode_ok buf ~id ~result:spliced ~trace:(Some trace))
  in
  Alcotest.(check string) "splice = direct" via_doc via_splice;
  match decode_payload via_doc with
  | Sframe.Result { result; trace = Some t; _ } ->
      Alcotest.(check string) "result equal" (Json.to_string doc)
        (Json.to_string result);
      Alcotest.(check string) "trace equal" (Json.to_string trace)
        (Json.to_string t)
  | _ -> Alcotest.fail "traced frame did not decode with a trace"

(* ---------- decoder fuzz ---------- *)

let valid_request_frame () =
  match
    Cframe.encode_request ~id:(Json.Int 7) ~timeout_ms:300 ~trace:true
      ~meth:"partition"
      ~params:(partition_params ~algorithm:"pipeline" ~instance:tree_obj ~k:9 ())
      ()
  with
  | Ok s -> s
  | Error msg -> Alcotest.failf "fixture frame refused: %s" msg

let test_request_decoder_truncation () =
  let frame = valid_request_frame () in
  let body = Bytes.of_string frame in
  let len = Bytes.length body - 4 in
  (match Sframe.decode_request body ~pos:4 ~len with
  | Ok _ -> ()
  | Error (_, e) -> Alcotest.failf "full frame rejected: %s" e.Protocol.message);
  for l = 0 to len - 1 do
    match Sframe.decode_request body ~pos:4 ~len:l with
    | Ok _ -> Alcotest.failf "truncated frame of %d bytes decoded" l
    | Error (_, e) ->
        check_bool "structured bad_request" true
          (e.Protocol.code = Protocol.Bad_request)
    | exception ex ->
        Alcotest.failf "truncation at %d raised %s" l (Printexc.to_string ex)
  done

let test_request_decoder_corruption =
  qcheck ~count:500 "corrupted request frames never raise"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 0 255))
    (fun (at, byte) ->
      let frame = valid_request_frame () in
      let body = Bytes.of_string frame in
      let len = Bytes.length body - 4 in
      Bytes.set body (4 + (at mod len)) (Char.chr byte);
      match Sframe.decode_request body ~pos:4 ~len with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let valid_response_payload () =
  encode_response (fun buf ->
      Sframe.encode_ok_doc buf ~id:(Json.Int 3)
        ~doc:(Json.Obj [ ("weight", Json.Int 3); ("q_mean", Json.Float 1.5) ])
        ~trace:(Some (Json.List [ Json.String "parse"; Json.Float 0.25 ])))

let test_response_decoder_truncation () =
  let payload = valid_response_payload () in
  check_bool "full payload decodes" true
    (match Sframe.decode_response payload with Ok _ -> true | Error _ -> false);
  for l = 0 to String.length payload - 1 do
    match Sframe.decode_response (String.sub payload 0 l) with
    | Ok _ -> Alcotest.failf "truncated payload of %d bytes decoded" l
    | Error _ -> ()
    | exception ex ->
        Alcotest.failf "truncation at %d raised %s" l (Printexc.to_string ex)
  done

let test_response_decoder_corruption =
  qcheck ~count:500 "corrupted response payloads never raise"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 0 255))
    (fun (at, byte) ->
      let payload = Bytes.of_string (valid_response_payload ()) in
      Bytes.set payload (at mod Bytes.length payload) (Char.chr byte);
      match Sframe.decode_response (Bytes.to_string payload) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* ---------- live loopback ---------- *)

let with_server ?(jobs = 2) ?(queue = 8) ?(cache = 32) ?(debug = false) f =
  let config =
    {
      Server.default_config with
      Server.port = 0;
      jobs;
      queue_capacity = queue;
      cache_capacity = cache;
      enable_debug = debug;
    }
  in
  let srv = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () -> f srv)

let client_for ?(proto = Client.V1) port =
  Client.create ~port ~proto ~rng:(Rng.create 1) ()

(* Both protocols against one live server, same arguments: results and
   errors must agree. The v1 call runs first, so the v2 call also
   exercises the cache-hit splice of the pre-encoded v2 rendering. *)
let test_live_differential () =
  with_server (fun srv ->
      let port = Server.port srv in
      let c1 = client_for port and c2 = client_for ~proto:Client.V2 port in
      Fun.protect
        ~finally:(fun () ->
          Client.close c1;
          Client.close c2)
        (fun () ->
          let call c ~meth ?params () =
            Client.call c ~id:(Json.Int 1) ~deadline_ms:10_000 ~meth ?params ()
          in
          let both label ~meth ?params () =
            match (call c1 ~meth ?params (), call c2 ~meth ?params ()) with
            | Ok r1, Ok r2 ->
                Alcotest.(check string)
                  (label ^ " results equal")
                  (Json.to_string r1.Client.result)
                  (Json.to_string r2.Client.result)
            | Error e1, Error e2 ->
                Alcotest.(check string)
                  (label ^ " errors equal")
                  (Client.error_to_string e1) (Client.error_to_string e2)
            | Ok _, Error e ->
                Alcotest.failf "%s: v1 ok, v2 error %s" label
                  (Client.error_to_string e)
            | Error e, Ok _ ->
                Alcotest.failf "%s: v1 error %s, v2 ok" label
                  (Client.error_to_string e)
          in
          List.iter
            (fun alg ->
              both
                ("partition " ^ alg)
                ~meth:"partition"
                ~params:(partition_params ~algorithm:alg ~instance:chain_obj ~k:9 ())
                ())
            [ "bandwidth"; "bottleneck"; "procmin"; "pipeline" ];
          both "partition tree procmin" ~meth:"partition"
            ~params:(partition_params ~algorithm:"procmin" ~instance:tree_obj ~k:9 ())
            ();
          (* Theorem-1 refusal: the NP-completeness message must read
             identically through both framings. *)
          both "tree bandwidth rejection" ~meth:"partition"
            ~params:(partition_params ~algorithm:"bandwidth" ~instance:tree_obj ~k:9 ())
            ();
          both "sweep hitting" ~meth:"sweep"
            ~params:
              (Json.Obj
                 [ ("instance", chain_obj); ("k_values", ints [ 7; 9; 12 ]) ])
            ();
          both "sweep deque" ~meth:"sweep"
            ~params:
              (Json.Obj
                 [
                   ("algorithm", Json.String "deque");
                   ("instance", chain_obj);
                   ("k_values", ints [ 7; 9; 12 ]);
                 ])
            ();
          both "verify" ~meth:"verify"
            ~params:(Json.Obj [ ("rounds", Json.Int 5); ("seed", Json.Int 2) ])
            ();
          both "verify rounds cap" ~meth:"verify"
            ~params:(Json.Obj [ ("rounds", Json.Int 1_000_000) ])
            ();
          (* Malformed instances: the client encoder validates with
             the v1 parser, so both wires refuse with one message. *)
          both "tree parent after child" ~meth:"partition"
            ~params:
              (partition_params ~algorithm:"procmin"
                 ~instance:
                   (Json.Obj
                      [
                        ("kind", Json.String "tree");
                        ("weights", ints [ 5; 3; 2 ]);
                        ("parents", Json.List [ ints [ 2; 1 ]; ints [ 0; 1 ] ]);
                      ])
                 ~k:9 ())
            ();
          both "negative alpha" ~meth:"partition"
            ~params:
              (partition_params
                 ~instance:
                   (Json.Obj
                      [
                        ("kind", Json.String "chain");
                        ("alpha", ints [ 4; -2; 7 ]);
                        ("beta", ints [ 1; 1 ]);
                      ])
                 ~k:9 ())
            ();
          both "short beta" ~meth:"partition"
            ~params:
              (partition_params
                 ~instance:
                   (Json.Obj
                      [
                        ("kind", Json.String "chain");
                        ("alpha", ints [ 4; 2; 7 ]);
                        ("beta", ints [ 1 ]);
                      ])
                 ~k:9 ())
            ();
          (* sleep without enable_debug: identical refusal. *)
          both "sleep disabled" ~meth:"sleep"
            ~params:(Json.Obj [ ("ms", Json.Int 5) ])
            ();
          (* timeout_ms:0 means "expired on arrival" on both wires. *)
          let expired c =
            Client.call c ~id:(Json.Int 2) ~timeout_ms:0 ~deadline_ms:10_000
              ~meth:"partition"
              ~params:(partition_params ~instance:chain_obj ~k:9 ())
              ()
          in
          match (expired c1, expired c2) with
          | Error (Client.Timeout m1), Error (Client.Timeout m2) ->
              Alcotest.(check string) "expired deadline message" m1 m2
          | _ -> Alcotest.fail "timeout_ms:0 did not time out on both wires"))

let recv_exact fd n =
  let buf = Bytes.create n in
  let got = ref 0 in
  (try
     while !got < n do
       match Unix.read fd buf !got (n - !got) with
       | 0 -> raise Exit
       | r -> got := !got + r
     done
   with Exit -> ());
  (!got, Bytes.sub_string buf 0 !got)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

let recv_frame fd =
  let got, header = recv_exact fd 4 in
  if got < 4 then Alcotest.fail "short frame header";
  let len =
    (Char.code header.[0] lsl 24)
    lor (Char.code header.[1] lsl 16)
    lor (Char.code header.[2] lsl 8)
    lor Char.code header.[3]
  in
  let got, payload = recv_exact fd len in
  if got < len then Alcotest.fail "short frame payload";
  payload

(* Raw-socket v2 session: hello echo, then two identical requests must
   come back as byte-identical frames — the second is a cache hit
   splicing the stored v2 rendering. *)
let test_loopback_v2_cache_hit_bytes () =
  with_server (fun srv ->
      let fd = connect (Server.port srv) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send_all fd Cframe.hello;
          let got, echo = recv_exact fd 5 in
          check_int "hello echo length" 5 got;
          Alcotest.(check string) "hello echoed" Cframe.hello echo;
          let frame =
            match
              Cframe.encode_request ~id:(Json.Int 1) ~meth:"partition"
                ~params:(partition_params ~instance:chain_obj ~k:9 ())
                ()
            with
            | Ok s -> s
            | Error msg -> Alcotest.failf "encode failed: %s" msg
          in
          send_all fd frame;
          let first = recv_frame fd in
          send_all fd frame;
          let second = recv_frame fd in
          Alcotest.(check string) "cache hit replays bytes" first second;
          match decode_payload first with
          | Sframe.Result { id = Json.Int 1; _ } -> ()
          | _ -> Alcotest.fail "response did not decode as result for id 1"))

let test_loopback_bad_hello_closes () =
  with_server (fun srv ->
      let fd = connect (Server.port srv) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send_all fd "\xf2XXXX";
          (* A 0xf2 first byte commits to v2; a mangled hello must end
             the connection without any response bytes. *)
          let got, _ = recv_exact fd 1 in
          check_int "no bytes before close" 0 got))

let test_hello_constants_agree () =
  Alcotest.(check string) "hello" Sframe.hello Cframe.hello;
  Alcotest.(check string) "schema" Sframe.schema Cframe.schema;
  check_int "hello length" 5 (String.length Sframe.hello);
  check_bool "discriminator byte" true (Sframe.hello.[0] = Sframe.hello_byte);
  check_int "0xf2" 0xf2 (Char.code Sframe.hello_byte)

(* ---------- workspace pool ---------- *)

let test_workspace_pool_reuse () =
  let pool = Workspaces.create () in
  let run n = Workspaces.with_workspace pool ~n (fun _ws -> ()) in
  run 100;
  check_bool "first checkout creates" true (Workspaces.counters pool = (1, 0));
  run 100;
  check_bool "second checkout reuses" true (Workspaces.counters pool = (1, 1));
  (* Same power-of-two capacity class: still a reuse. *)
  run 70;
  check_bool "same class reuses" true (Workspaces.counters pool = (1, 2));
  (* A different class allocates its own workspace. *)
  run 5000;
  check_bool "new class creates" true (Workspaces.counters pool = (2, 2))

let test_workspace_pool_exception_safety () =
  let pool = Workspaces.create () in
  (try
     Workspaces.with_workspace pool ~n:64 (fun _ws -> failwith "solver blew up")
   with Failure _ -> ());
  Workspaces.with_workspace pool ~n:64 (fun _ws -> ());
  check_bool "returned to pool despite exception" true
    (Workspaces.counters pool = (1, 1))

let suite =
  [
    test_varint_round_trip;
    test_zigzag_round_trip;
    Alcotest.test_case "zigzag domain bounds" `Quick test_zigzag_domain_bounds;
    test_decimal_matches_string_of_int;
    Alcotest.test_case "varint reader rejects" `Quick test_varint_reader_rejects;
    test_binval_round_trip;
    Alcotest.test_case "binval float exactness" `Quick test_binval_float_exact;
    test_digest_parity_chain;
    test_digest_parity_tree;
    Alcotest.test_case "golden frames" `Quick test_golden_frames;
    Alcotest.test_case "request frames round trip" `Quick
      test_request_frames_round_trip;
    test_request_frame_property;
    Alcotest.test_case "text instance encodes inline" `Quick
      test_text_instance_encodes_inline;
    Alcotest.test_case "decoder refusals match v1" `Quick
      test_decoder_refusals_match_v1;
    Alcotest.test_case "error frames differential" `Quick
      test_error_frames_differential;
    Alcotest.test_case "ok frames differential" `Quick
      test_ok_frames_differential;
    Alcotest.test_case "request decoder truncation" `Quick
      test_request_decoder_truncation;
    test_request_decoder_corruption;
    Alcotest.test_case "response decoder truncation" `Quick
      test_response_decoder_truncation;
    test_response_decoder_corruption;
    Alcotest.test_case "live v1/v2 differential" `Quick test_live_differential;
    Alcotest.test_case "v2 cache hit byte equality" `Quick
      test_loopback_v2_cache_hit_bytes;
    Alcotest.test_case "bad hello closes cleanly" `Quick
      test_loopback_bad_hello_closes;
    Alcotest.test_case "hello constants agree" `Quick test_hello_constants_agree;
    Alcotest.test_case "workspace pool reuse" `Quick test_workspace_pool_reuse;
    Alcotest.test_case "workspace pool exception safety" `Quick
      test_workspace_pool_exception_safety;
  ]

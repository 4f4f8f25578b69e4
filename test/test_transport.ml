(* The shared connection transport (Tlp_server.Transport), driven over
   raw sockets against both daemons that run it: a live tlp_serve and a
   live tlp_route fronting one shard.  Covers read-boundary
   independence of both framings, the unterminated v1 line at EOF, the
   fixed frame limit on both framings, and the bad v2 hello.  Every
   check waits on the peer's bytes or its close, never on a sleep. *)

module Json = Tlp_util.Json_out
module Server = Tlp_server.Server
module Transport = Tlp_server.Transport
module Cframe = Tlp_client.Frame
module Ring = Tlp_route.Ring
module Router = Tlp_route.Router

let check_string = Alcotest.(check string)

(* ---------- targets ---------- *)

let with_server f =
  let srv =
    Server.start { Server.default_config with Server.port = 0; jobs = 2 }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () -> f (Server.port srv))

let with_router f =
  with_server (fun shard_port ->
      let router =
        Router.start
          { Router.default_config with Router.port = 0 }
          [| { Ring.name = "only"; host = "127.0.0.1"; port = shard_port } |]
      in
      Fun.protect
        ~finally:(fun () ->
          Router.stop router;
          Router.wait router)
        (fun () -> f (Router.port router)))

let targets = [ ("server", with_server); ("router", with_router) ]

(* ---------- raw socket helpers ---------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  (* A peer that never closes fails the test instead of hanging it. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let write_bytewise fd s = String.iter (fun c -> write_all fd (String.make 1 c)) s

(* Everything the peer sends until it closes.  A reset counts as a
   close: the peer may hang up with our last bytes still unread. *)
let read_to_close fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "peer neither answered nor closed within 10 s"
  in
  go ();
  Buffer.contents buf

(* One connection: [send] writes the request bytes, our side then
   half-closes (unless [half_close] is false) and the reply is read to
   the peer's close. *)
let exchange ?(half_close = true) port send =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      send fd;
      if half_close then Unix.shutdown fd Unix.SHUTDOWN_SEND;
      read_to_close fd)

(* ---------- fixtures ---------- *)

let partition_params =
  Json.Obj
    [
      ( "instance",
        Json.Obj
          [
            ("kind", Json.String "chain");
            ("alpha", Json.List (List.map (fun v -> Json.Int v) [ 12; 7; 9; 14; 6 ]));
            ("beta", Json.List (List.map (fun v -> Json.Int v) [ 40; 3; 25; 8 ]));
          ] );
      ("k", Json.Int 21);
    ]

let v1_line =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int 1);
         ("method", Json.String "partition");
         ("params", partition_params);
       ])

let v2_request =
  match
    Cframe.encode_request ~id:(Json.Int 1) ~meth:"partition"
      ~params:partition_params ()
  with
  | Ok frame -> Cframe.hello ^ frame
  | Error msg -> failwith msg

let frame_limit_message =
  Printf.sprintf "frame exceeds %d bytes" Transport.max_frame_bytes

let u32_be n =
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

(* The one v1 reply to a frame-limit violation: [bad_request], id null. *)
let check_v1_limit_reply label reply =
  match String.split_on_char '\n' reply with
  | [ line; "" ] -> (
      match Json.parse line with
      | Ok (Json.Obj fields) ->
          Alcotest.(check bool) (label ^ ": id null") true
            (List.assoc_opt "id" fields = Some Json.Null);
          Alcotest.(check bool) (label ^ ": bad_request") true
            (List.assoc_opt "error" fields
            = Some
                (Json.Obj
                   [
                     ("code", Json.String "bad_request");
                     ("message", Json.String frame_limit_message);
                   ]))
      | _ -> Alcotest.failf "%s: unparseable reply %S" label line)
  | _ -> Alcotest.failf "%s: expected one reply line, got %S" label reply

(* ---------- cases ---------- *)

let test_bytewise with_target () =
  with_target (fun port ->
      let whole = exchange port (fun fd -> write_all fd (v1_line ^ "\n")) in
      let bytewise =
        exchange port (fun fd -> write_bytewise fd (v1_line ^ "\n"))
      in
      Alcotest.(check bool) "v1 reply is one line" true
        (String.length whole > 0 && whole.[String.length whole - 1] = '\n');
      check_string "v1 bytes independent of read boundaries" whole bytewise;
      let whole = exchange port (fun fd -> write_all fd v2_request) in
      let bytewise = exchange port (fun fd -> write_bytewise fd v2_request) in
      check_string "v2 hello echoed first" Cframe.hello
        (String.sub whole 0 (min 5 (String.length whole)));
      check_string "v2 bytes independent of read boundaries" whole bytewise)

let test_unterminated_line_at_eof with_target () =
  with_target (fun port ->
      let terminated = exchange port (fun fd -> write_all fd (v1_line ^ "\n")) in
      let unterminated = exchange port (fun fd -> write_all fd v1_line) in
      check_string "final line without newline answered" terminated
        unterminated)

let test_over_limit with_target () =
  with_target (fun port ->
      (* A [health] line 2 bytes over the limit (4 MiB + 3 bytes with its
         newline).  All but its last 5 bytes go first, the rest in one
         write: the newline arrives in the read that crosses the limit,
         and the line must still be refused, not served. *)
      let head = {|{"id":1,"method":"health","pad":"|} and tail = {|"}|} in
      let pad =
        Transport.max_frame_bytes + 2 - String.length head - String.length tail
      in
      let line = head ^ String.make pad 'a' ^ tail ^ "\n" in
      let split = Transport.max_frame_bytes - 2 in
      let reply =
        exchange ~half_close:false port (fun fd ->
            write_all fd (String.sub line 0 split);
            write_all fd
              (String.sub line split (String.length line - split)))
      in
      check_v1_limit_reply "split over-limit v1 line" reply;
      let reply =
        exchange ~half_close:false port (fun fd ->
            write_all fd (Cframe.hello ^ u32_be (Transport.max_frame_bytes + 1)))
      in
      let n = String.length reply in
      Alcotest.(check bool) "v2 reply is hello + one frame" true
        (n >= 9 && String.sub reply 0 5 = Cframe.hello);
      let len =
        (Char.code reply.[5] lsl 24)
        lor (Char.code reply.[6] lsl 16)
        lor (Char.code reply.[7] lsl 8)
        lor Char.code reply.[8]
      in
      Alcotest.(check int) "nothing after the error frame" (n - 9) len;
      match Tlp_server.Frame.decode_response (String.sub reply 9 len) with
      | Ok
          (Tlp_server.Frame.Rpc_err
             { id = Json.Null; code = Tlp_server.Protocol.Bad_request; message })
        ->
          check_string "v2 limit message" frame_limit_message message
      | _ -> Alcotest.fail "v2 over-limit prefix not answered bad_request")

let test_bad_hello with_target () =
  with_target (fun port ->
      let reply =
        exchange ~half_close:false port (fun fd -> write_all fd "\xf2TLPX")
      in
      check_string "closed without a reply" "" reply)

let suite =
  List.concat_map
    (fun (name, with_target) ->
      [
        Alcotest.test_case (name ^ ": byte-per-write equals one write") `Quick
          (test_bytewise with_target);
        Alcotest.test_case (name ^ ": unterminated v1 line at EOF") `Quick
          (test_unterminated_line_at_eof with_target);
        Alcotest.test_case (name ^ ": over-limit frames refused") `Quick
          (test_over_limit with_target);
        Alcotest.test_case (name ^ ": bad hello closes silently") `Quick
          (test_bad_hello with_target);
      ])
    targets

(* Tests of the benchmark's own machinery: the answer checker catches
   a wrong answer in any phase of a run, the generator replays from its
   seed, and the trace stripping agrees with the wire codecs. *)

open Tlp_perfbench
module Json = Tlp_util.Json_out
module Binval = Tlp_util.Binval
module Bytebuf = Tlp_util.Bytebuf
module Protocol = Tlp_server.Protocol
module Frame = Tlp_server.Frame
module Client = Tlp_client.Client

let first_op workload =
  (Gen.stream workload ~seed:7 ~conns:2 ~conn:0).Gen.next ~trace:false

(* Drop the first edge of the reference answer's cut. *)
let flip_cut doc =
  match doc with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "cut", Json.List (_ :: rest) -> ("cut", Json.List rest)
             | f -> f)
           fields)
  | _ -> doc

let sample_of proto raw =
  { Check.seq = 0; traced = false; t0 = 0.0; t1 = 0.0;
    outcome = Check.reply proto ~traced:false raw }

let render proto (op : Gen.op) doc =
  Check.envelope proto (Bytebuf.create 64) ~id:op.Gen.id
    ~v1:(lazy (Json.to_string doc))
    ~v2:(lazy (Binval.to_string doc))

let flipped_cut_is_caught workload () =
  let op = first_op workload in
  let proto = Gen.framing workload ~conn:0 in
  let doc = Check.expected_doc op.Gen.request in
  let flipped = flip_cut doc in
  Alcotest.(check bool) "the flip changed the answer" false (flipped = doc);
  Alcotest.(check bool)
    "certificate accepts the reference" true
    (Check.certificate op.Gen.request doc = Ok ());
  Alcotest.(check bool)
    "certificate rejects the flipped cut" true
    (Result.is_error (Check.certificate op.Gen.request flipped));
  let check raw =
    (Check.check_conn workload ~seed:7 ~conns:2 ~conn:0
       [| sample_of proto raw |]).Check.failures
  in
  Alcotest.(check (list (pair int string))) "reference passes" [] (check (render proto op doc));
  Alcotest.(check (list (pair int string)))
    "flipped answer is a mismatch" [ (0, "mismatch") ]
    (check (render proto op flipped))

let digest_replays () =
  List.iter
    (fun (name, w) ->
      let d seed = Gen.replay_digest ~ops:4 w ~seed ~conns:2 in
      Alcotest.(check string) (name ^ ": same seed, same digest") (d 1) (d 1);
      Alcotest.(check bool) (name ^ ": other seed, other digest") false (d 1 = d 2))
    Gen.workloads

(* A --trace 1 run times an untraced half, then a traced half.  A wrong
   answer in the untraced half must fail the run and count in [failed]
   and [attempted] like one in the traced half. *)
let untraced_half_failure_fails_run () =
  let workload = Gen.Cold_small and conns = 2 in
  let proto = Gen.framing workload ~conn:0 in
  let stream = Gen.stream workload ~seed:7 ~conns ~conn:0 in
  let sample traced ~wrong =
    let op = stream.Gen.next ~trace:traced in
    let doc = Check.expected_doc op.Gen.request in
    let raw = render proto op (if wrong then flip_cut doc else doc) in
    { Check.seq = op.Gen.seq; traced; t0 = 0.0; t1 = 0.0;
      outcome = Check.reply proto ~traced raw }
  in
  let warm = sample false ~wrong:false in
  let untraced = sample false ~wrong:true in
  let traced = sample true ~wrong:false in
  let reports =
    Array.init conns (fun conn ->
        Check.check_conn workload ~seed:7 ~conns ~conn
          (if conn = 0 then [| warm; untraced; traced |] else [||]))
  in
  let correct, attempted, failed =
    Check.verdict reports ~setup_failed:0 ~warmup:[| [| warm |]; [||] |]
      ~timed:[ [| [| untraced |]; [||] |]; [| [| traced |]; [||] |] ]
  in
  Alcotest.(check bool) "run is not correct" false correct;
  Alcotest.(check int) "both halves attempted" 2 attempted;
  Alcotest.(check int) "the untraced failure counts" 1 failed

let trace_is_stripped () =
  let id = Json.Int 5 and result = Json.Obj [ ("cut", Json.List [ Json.Int 1 ]) ] in
  let trace =
    Json.Obj
      [ ("request_id", Json.Int 9);
        ("spans", Json.Obj [ ("accept_ms", Json.Float 0.5) ]) ]
  in
  let v1 = Protocol.render_ok ~id ~result:(Json.to_string result) in
  let v1_traced =
    Protocol.render_ok_traced ~id ~result:(Json.to_string result) ~trace
  in
  let body, raw = Check.split_trace Client.V1 v1_traced in
  Alcotest.(check string) "v1 body" v1 body;
  Alcotest.(check bool) "v1 trace" true (Check.trace_json Client.V1 (Option.get raw) = Ok trace);
  let v2 tr =
    let b = Bytebuf.create 64 in
    Frame.encode_ok b ~id ~result:(Binval.to_string result) ~trace:tr;
    let s = Bytebuf.contents b in
    String.sub s 4 (String.length s - 4)
  in
  let body, raw = Check.split_trace Client.V2 (v2 (Some trace)) in
  Alcotest.(check string) "v2 body" (v2 None) body;
  Alcotest.(check bool) "v2 trace" true (Check.trace_json Client.V2 (Option.get raw) = Ok trace)

let () =
  Alcotest.run "perfbench"
    [
      ( "checker",
        [
          Alcotest.test_case "flipped cut edge caught (v1 chain)" `Quick
            (flipped_cut_is_caught Gen.Cold_small);
          Alcotest.test_case "flipped cut edge caught (v2 chain)" `Quick
            (flipped_cut_is_caught Gen.Large_solve);
          Alcotest.test_case "trace member stripped" `Quick trace_is_stripped;
          Alcotest.test_case "untraced-half failure fails the run" `Quick
            untraced_half_failure_fails_run;
        ] );
      ( "generator",
        [
          Alcotest.test_case "replay digest follows the seed" `Quick digest_replays;
        ] );
    ]

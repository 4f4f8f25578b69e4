(* Streaming-repartitioning sessions (PROTOCOL.md section 9): the
   session store's lifecycle (open / update / TTL eviction / stats),
   the session-level differential property (resolve through a drifted
   session == from-scratch solve on the materialized instance), the
   server's open/update/resolve RPCs over both framings, the cache
   re-keying contract (a mutated instance can never replay a stale
   entry). *)

open Helpers
module Json = Tlp_util.Json_out
module Rng = Tlp_util.Rng
module Chain = Tlp_graph.Chain
module Tree = Tlp_graph.Tree
module Io = Tlp_graph.Instance_io
module Incr = Tlp_core.Incremental
module Bh = Tlp_core.Bandwidth_hitting
module Session = Tlp_session.Session
module Cache = Tlp_server.Cache
module Protocol = Tlp_server.Protocol
module Handler = Tlp_server.Handler
module State = Tlp_server.State
module Server = Tlp_server.Server
module Client = Tlp_client.Client

let chain5 = Chain.make ~alpha:[| 4; 2; 7; 3; 5 |] ~beta:[| 6; 2; 9; 4 |]

let inline_chain = {|{"kind":"chain","alpha":[4,2,7,3,5],"beta":[6,2,9,4]}|}

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || at (i + 1)
  in
  at 0

let open_ok ?name store ~instance ~now =
  match Session.open_session store ?name ~instance ~now () with
  | Ok s -> s
  | Error msg -> Alcotest.failf "open failed: %s" msg

let open_err ?name store ~instance ~now =
  match Session.open_session store ?name ~instance ~now () with
  | Ok _ -> Alcotest.fail "open unexpectedly succeeded"
  | Error msg -> msg

(* ---------- store lifecycle ---------- *)

let test_open_find_digest () =
  let store = Session.create ~ttl_s:0.0 () in
  let s =
    open_ok store ~name:"alpha" ~instance:(Io.Chain_instance chain5) ~now:0.0
  in
  check_int "fresh version" 0 (Session.version s);
  Alcotest.(check string) "kind" "chain" (Session.kind s);
  check_int "size" 5 (Session.size s);
  Alcotest.(check string) "digest" "session:1:alpha:v0" (Session.digest s);
  check_int "one open" 1 (Session.count store);
  (match Session.find store ~id:"alpha" ~now:1.0 with
  | Some s' -> Alcotest.(check string) "found same session" "alpha" (Session.id s')
  | None -> Alcotest.fail "find lost the session");
  check_bool "unknown id" true (Session.find store ~id:"beta" ~now:1.0 = None)

let test_generated_ids () =
  let store = Session.create ~ttl_s:0.0 () in
  let a = open_ok store ~instance:(Io.Chain_instance chain5) ~now:0.0 in
  let b = open_ok store ~instance:(Io.Chain_instance chain5) ~now:0.0 in
  Alcotest.(check string) "first generated id" "s1" (Session.id a);
  Alcotest.(check string) "second generated id" "s2" (Session.id b);
  (* A client squatting on the next generated name must not wedge the
     generator. *)
  let _ =
    open_ok store ~name:"s3" ~instance:(Io.Chain_instance chain5) ~now:0.0
  in
  let d = open_ok store ~instance:(Io.Chain_instance chain5) ~now:0.0 in
  Alcotest.(check string) "generator skips taken names" "s4" (Session.id d)

let test_open_rejections () =
  let store = Session.create ~ttl_s:0.0 ~max_sessions:2 () in
  let instance = Io.Chain_instance chain5 in
  check_bool "empty name" true
    (contains (open_err store ~name:"" ~instance ~now:0.0) "bad session name");
  check_bool "name with space" true
    (contains
       (open_err store ~name:"a b" ~instance ~now:0.0)
       "bad session name");
  check_bool "overlong name" true
    (contains
       (open_err store ~name:(String.make 65 'x') ~instance ~now:0.0)
       "bad session name");
  let _ = open_ok store ~name:"dup" ~instance ~now:0.0 in
  check_bool "duplicate name" true
    (contains (open_err store ~name:"dup" ~instance ~now:0.0) "already open");
  let _ = open_ok store ~name:"second" ~instance ~now:0.0 in
  check_bool "table full" true
    (contains (open_err store ~name:"third" ~instance ~now:0.0) "table full")

let test_update_versions_and_rollback () =
  let store = Session.create ~ttl_s:0.0 () in
  let s =
    open_ok store ~name:"a" ~instance:(Io.Chain_instance chain5) ~now:0.0
  in
  let before = Session.materialize s in
  (match Session.update s [ Incr.Vertex (0, 3); Incr.Edge (1, -1) ] with
  | Ok v -> check_int "first update bumps to v1" 1 v
  | Error msg -> Alcotest.failf "update failed: %s" msg);
  Alcotest.(check string) "digest re-keyed" "session:1:a:v1" (Session.digest s);
  (* A batch with a late offender must roll back its applied prefix:
     version, digest, and weights all stay at v1. *)
  (match Session.update s [ Incr.Vertex (1, 5); Incr.Vertex (99, 1) ] with
  | Ok _ -> Alcotest.fail "bad batch unexpectedly accepted"
  | Error msg ->
      Alcotest.(check string)
        "offender named" "vertex 99 out of range [0, 5)" msg);
  check_int "version unchanged by rejected batch" 1 (Session.version s);
  (match (Session.materialize s, before) with
  | Io.Chain_instance now, Io.Chain_instance orig ->
      check_int "prefix rolled back" (orig.Chain.alpha.(1))
        now.Chain.alpha.(1);
      check_int "v1 delta still applied" (orig.Chain.alpha.(0) + 3)
        now.Chain.alpha.(0)
  | _ -> Alcotest.fail "chain session materialized as non-chain");
  match Session.update s [ Incr.Vertex (0, -100) ] with
  | Ok _ -> Alcotest.fail "positivity violation accepted"
  | Error msg ->
      Alcotest.(check string)
        "positivity message" "vertex 0: weight 7-100 must stay positive" msg

let test_ttl_eviction () =
  let store = Session.create ~ttl_s:5.0 () in
  let _ =
    open_ok store ~name:"idle" ~instance:(Io.Chain_instance chain5) ~now:0.0
  in
  check_bool "alive within ttl" true
    (Session.find store ~id:"idle" ~now:4.0 <> None);
  (* The find above refreshed last_used to 4.0; expiry is measured from
     there. *)
  check_bool "evicted after ttl" true
    (Session.find store ~id:"idle" ~now:9.5 = None);
  check_int "table empty" 0 (Session.count store);
  let stats = Json.to_string (Session.stats_json store ~now:10.0) in
  check_bool "eviction counted" true (contains stats {|"evicted":1|});
  check_bool "opened counted" true (contains stats {|"opened":1|});
  (* ttl 0 disables eviction entirely. *)
  let forever = Session.create ~ttl_s:0.0 () in
  let _ =
    open_ok forever ~name:"keep" ~instance:(Io.Chain_instance chain5) ~now:0.0
  in
  check_bool "ttl 0 never evicts" true
    (Session.find forever ~id:"keep" ~now:1.0e9 <> None)

let test_tree_session () =
  let tree =
    Tree.make ~weights:[| 5; 3; 4; 2 |]
      ~edges:[ (0, 1, 7); (0, 2, 2); (2, 3, 6) ]
  in
  let store = Session.create ~ttl_s:0.0 () in
  let s = open_ok store ~name:"t" ~instance:(Io.Tree_instance tree) ~now:0.0 in
  Alcotest.(check string) "kind" "tree" (Session.kind s);
  check_int "size" 4 (Session.size s);
  (match Session.update s [ Incr.Vertex (2, 6); Incr.Edge (0, -4) ] with
  | Ok v -> check_int "tree update bumps version" 1 v
  | Error msg -> Alcotest.failf "tree update failed: %s" msg);
  (match Session.materialize s with
  | Io.Tree_instance t ->
      check_int "vertex weight drifted" 10 t.Tree.weights.(2);
      let _, _, w0 = t.Tree.edges.(0) in
      check_int "edge weight drifted" 3 w0
  | _ -> Alcotest.fail "tree session materialized as non-tree");
  (* Same error spellings and rollback contract as the chain path. *)
  (match Session.update s [ Incr.Edge (1, 9); Incr.Edge (7, 1) ] with
  | Ok _ -> Alcotest.fail "bad tree batch accepted"
  | Error msg ->
      Alcotest.(check string) "offender named" "edge 7 out of range [0, 3)" msg);
  match Session.materialize s with
  | Io.Tree_instance t ->
      let _, _, w1 = t.Tree.edges.(1) in
      check_int "tree prefix rolled back" 2 w1
  | _ -> Alcotest.fail "tree session materialized as non-chain"

let test_stats_json_shape () =
  let store = Session.create ~ttl_s:7.5 () in
  let s =
    open_ok store ~name:"a" ~instance:(Io.Chain_instance chain5) ~now:0.0
  in
  (match Session.update s [ Incr.Vertex (0, 1) ] with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "update failed: %s" msg);
  Session.note_resolve s (Some Incr.Incremental);
  Session.note_resolve s (Some Incr.Full);
  Session.note_resolve s None;
  let text = Json.to_string (Session.stats_json store ~now:1.0) in
  (match Json.validate text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "stats not valid JSON: %s" msg);
  List.iter
    (fun needle -> check_bool needle true (contains text needle))
    [
      {|"open":1|};
      {|"ttl_s":7.5|};
      {|"session":"a"|};
      {|"version":1|};
      {|"updates":1|};
      {|"resolves":3|};
      {|"resolves_incremental":1|};
      {|"resolves_full":1|};
    ]

(* ---------- differential property: session == from-scratch ---------- *)

(* A drift script: raw integer seeds turned into always-valid deltas
   against plan-side weight copies, exactly how the load generator
   builds its walk.  Returns the delta batches plus the final weights
   (for drawing a feasible K). *)
let script_deltas ~alpha ~beta script =
  let batches =
    List.map
      (fun batch ->
        List.map
          (fun (pick_edge, idx, mag, sign) ->
            let mag = 1 + (abs mag mod 20) in
            let signed current =
              if current - mag >= 1 && sign land 1 = 0 then -mag else mag
            in
            if (not pick_edge) || Array.length beta = 0 then begin
              let i = abs idx mod Array.length alpha in
              let d = signed alpha.(i) in
              alpha.(i) <- alpha.(i) + d;
              Incr.Vertex (i, d)
            end
            else begin
              let j = abs idx mod Array.length beta in
              let d = signed beta.(j) in
              beta.(j) <- beta.(j) + d;
              Incr.Edge (j, d)
            end)
          batch)
      script
  in
  batches

let session_differential_gen =
  let open QCheck2.Gen in
  let* chain_k = small_chain_gen in
  let* script =
    list_size (int_range 1 6)
      (list_size (int_range 1 4)
         (quad bool (int_range 0 10_000) (int_range 0 10_000) (int_range 0 1)))
  in
  let* k_frac = int_range 0 100 in
  return (chain_k, script, k_frac)

let prop_session_matches_scratch ((chain, _), script, k_frac) =
  let store = Session.create ~ttl_s:0.0 () in
  let s =
    match
      Session.open_session store ~instance:(Io.Chain_instance chain) ~now:0.0
        ()
    with
    | Ok s -> s
    | Error msg -> QCheck2.Test.fail_reportf "open failed: %s" msg
  in
  let alpha = Array.copy chain.Chain.alpha in
  let beta = Array.copy chain.Chain.beta in
  let batches = script_deltas ~alpha ~beta script in
  List.iter
    (fun batch ->
      match Session.update s batch with
      | Ok _ -> ()
      | Error msg -> QCheck2.Test.fail_reportf "valid batch rejected: %s" msg)
    batches;
  let max_alpha = Array.fold_left Stdlib.max 1 alpha in
  let total = Array.fold_left ( + ) 0 alpha in
  let k = max_alpha + ((total - max_alpha) * k_frac / 100) in
  let incr =
    match Session.view s with
    | Session.Chain_view incr -> incr
    | Session.Tree_view _ -> QCheck2.Test.fail_report "chain session, tree view"
  in
  let materialized =
    match Session.materialize s with
    | Io.Chain_instance c -> c
    | _ -> QCheck2.Test.fail_report "chain session materialized as non-chain"
  in
  check_int "session tracked the walk" total (Chain.total_weight materialized);
  match
    ( Incr.resolve ~plan:Incr.Prefer_incremental incr ~k,
      Bh.solve materialized ~k )
  with
  | Ok (inc, _), Ok scratch ->
      inc.Bh.cut = scratch.Bh.cut
      && inc.Bh.weight = scratch.Bh.weight
      && inc.Bh.stats = scratch.Bh.stats
      && Session.version s = List.length batches
  | Error e1, Error e2 ->
      Tlp_core.Infeasible.to_string e1 = Tlp_core.Infeasible.to_string e2
  | Ok _, Error _ | Error _, Ok _ ->
      QCheck2.Test.fail_report "feasibility disagreement"

(* ---------- loopback: the session RPCs ---------- *)

let with_server ?(session_ttl = 0.0) ?(cache = 32) f =
  let config =
    {
      Server.default_config with
      Server.port = 0;
      jobs = 2;
      queue_capacity = 8;
      cache_capacity = cache;
      session_ttl_s = session_ttl;
    }
  in
  let srv = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () -> f srv)

(* Sequential exchange on one connection: session ops are ordered, so
   unlike test_server's concurrent exchanges these must share a socket
   and run in sequence. *)
let talk port lines =
  let client =
    Client.create ~host:"127.0.0.1" ~port ~rng:(Rng.create 1) ()
  in
  Fun.protect
    ~finally:(fun () -> Client.close client)
    (fun () ->
      List.map
        (fun line ->
          match Client.round_trip client line with
          | Ok response -> response
          | Error e -> Alcotest.failf "round trip: %s" (Client.error_to_string e))
        lines)

let open_line ~id ~session =
  Printf.sprintf
    {|{"id":%d,"method":"open","params":{"instance":%s,"session":"%s"}}|} id
    inline_chain session

let update_line ~id ~session deltas =
  Printf.sprintf {|{"id":%d,"method":"update","params":{"session":"%s","deltas":%s}}|}
    id session deltas

let resolve_line ~id ~session ~k =
  Printf.sprintf
    {|{"id":%d,"method":"resolve","params":{"session":"%s","k":%d,"algorithm":"bandwidth"}}|}
    id session k

let reference_partition ~id chain ~k =
  match
    Handler.partition_result (Io.Chain_instance chain) ~k
      ~algorithm:Protocol.Bandwidth
  with
  | Ok doc -> Protocol.render_ok ~id:(Json.Int id) ~result:(Json.to_string doc)
  | Error _ -> Alcotest.fail "reference partition unexpectedly failed"

let test_loopback_lifecycle () =
  with_server (fun srv ->
      let port = Server.port srv in
      let responses =
        talk port
          [
            open_line ~id:1 ~session:"life";
            update_line ~id:2 ~session:"life" {|[["vertex",0,3],["edge",1,-1]]|};
            resolve_line ~id:3 ~session:"life" ~k:9;
          ]
      in
      match responses with
      | [ opened; updated; resolved ] ->
          Alcotest.(check string)
            "open response"
            {|{"schema":"tlp.rpc/v1","id":1,"ok":true,"result":{"session":"life","kind":"chain","n":5,"version":0}}|}
            opened;
          Alcotest.(check string)
            "update response"
            {|{"schema":"tlp.rpc/v1","id":2,"ok":true,"result":{"session":"life","version":1,"applied":2}}|}
            updated;
          (* The resolve document is byte-identical to a partition of
             the drifted instance — same renderer, same fields, no
             session decoration. *)
          let drifted =
            Chain.make ~alpha:[| 7; 2; 7; 3; 5 |] ~beta:[| 6; 1; 9; 4 |]
          in
          Alcotest.(check string)
            "resolve == partition of materialized instance"
            (reference_partition ~id:3 drifted ~k:9)
            resolved
      | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs))

let test_loopback_unknown_session () =
  with_server (fun srv ->
      let port = Server.port srv in
      let responses =
        talk port
          [
            update_line ~id:1 ~session:"ghost" {|[["vertex",0,1]]|};
            resolve_line ~id:2 ~session:"ghost" ~k:9;
            open_line ~id:3 ~session:"dup";
            open_line ~id:4 ~session:"dup";
            update_line ~id:5 ~session:"dup" {|[["vertex",0,-99]]|};
          ]
      in
      match responses with
      | [ u; r; _; dup; bad_delta ] ->
          check_bool "update unknown" true
            (contains u {|"code":"bad_request"|}
            && contains u {|unknown session \"ghost\"|});
          check_bool "resolve unknown" true
            (contains r {|unknown session \"ghost\"|});
          check_bool "double open rejected" true
            (contains dup {|session \"dup\" is already open|});
          check_bool "rejected batch surfaces the offender" true
            (contains bad_delta {|weight 4-99 must stay positive|})
      | rs -> Alcotest.failf "expected 5 responses, got %d" (List.length rs))

let test_loopback_eviction_races_resolve () =
  (* An aggressive TTL: by the time the second resolve arrives the
     session has idled out, and the server answers bad_request instead
     of resurrecting state. *)
  with_server ~session_ttl:0.05 (fun srv ->
      let port = Server.port srv in
      let first =
        talk port
          [ open_line ~id:1 ~session:"brief"; resolve_line ~id:2 ~session:"brief" ~k:9 ]
      in
      check_bool "resolve before expiry is ok" true
        (contains (List.nth first 1) {|"ok":true|});
      Thread.delay 0.2;
      let late = talk port [ resolve_line ~id:3 ~session:"brief" ~k:9 ] in
      check_bool "resolve after eviction" true
        (contains (List.nth late 0) {|unknown session \"brief\"|}))

let test_loopback_cache_rekey () =
  with_server (fun srv ->
      let port = Server.port srv in
      let st = Server.state srv in
      let cache_hits () =
        State.with_lock st (fun () -> Cache.hits (State.cache st))
      in
      let r1 =
        talk port
          [ open_line ~id:0 ~session:"ck"; resolve_line ~id:1 ~session:"ck" ~k:9 ]
        |> fun rs -> List.nth rs 1
      in
      check_int "first resolve misses" 0 (cache_hits ());
      let r2 = List.nth (talk port [ resolve_line ~id:1 ~session:"ck" ~k:9 ]) 0 in
      check_int "same version replays from cache" 1 (cache_hits ());
      Alcotest.(check string) "cached resolve byte-identical" r1 r2;
      (* The update bumps the session version, so the next resolve keys
         differently: it must recompute (no stale hit) and answer for
         the drifted weights. *)
      let after =
        talk port
          [
            update_line ~id:2 ~session:"ck" {|[["vertex",2,10]]|};
            resolve_line ~id:3 ~session:"ck" ~k:19;
          ]
      in
      check_int "post-update resolve is a miss" 1 (cache_hits ());
      let drifted =
        Chain.make ~alpha:[| 4; 2; 17; 3; 5 |] ~beta:[| 6; 2; 9; 4 |]
      in
      Alcotest.(check string)
        "post-update resolve answers for the new weights"
        (reference_partition ~id:3 drifted ~k:19)
        (List.nth after 1);
      check_int "old and new version both cached" 2
        (State.with_lock st (fun () -> Cache.length (State.cache st))))

(* The v2 analogue of the re-key test, at the byte level: repeated
   resolves of one version serve identical binary payloads (the cached
   v2 rendering), and an update forces a re-encode under the new key. *)
let test_loopback_v2_cache_bytes () =
  with_server (fun srv ->
      let port = Server.port srv in
      let client =
        Client.create ~host:"127.0.0.1" ~port ~proto:Client.V2
          ~rng:(Rng.create 1) ()
      in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let send ~id ~meth ~params =
            let frame =
              match
                Tlp_client.Frame.encode_request ~id:(Json.Int id) ~meth ~params
                  ()
              with
              | Ok f -> f
              | Error msg -> Alcotest.failf "unencodable %s: %s" meth msg
            in
            match Client.round_trip_frame client frame with
            | Ok payload -> payload
            | Error e ->
                Alcotest.failf "v2 round trip: %s" (Client.error_to_string e)
          in
          let parse_instance =
            match Json.parse inline_chain with
            | Ok doc -> doc
            | Error msg -> Alcotest.failf "bad inline chain: %s" msg
          in
          let opened =
            send ~id:1 ~meth:"open"
              ~params:
                (Json.Obj
                   [
                     ("instance", parse_instance);
                     ("session", Json.String "v2ck");
                   ])
          in
          (match Tlp_server.Frame.decode_response opened with
          | Ok (Tlp_server.Frame.Result _) -> ()
          | Ok (Tlp_server.Frame.Rpc_err { message; _ }) ->
              Alcotest.failf "open failed: %s" message
          | Error msg -> Alcotest.failf "undecodable open response: %s" msg);
          let resolve ~id =
            send ~id ~meth:"resolve"
              ~params:
                (Json.Obj
                   [
                     ("session", Json.String "v2ck");
                     ("k", Json.Int 9);
                     ("algorithm", Json.String "bandwidth");
                   ])
          in
          let a = resolve ~id:7 in
          let b = resolve ~id:7 in
          Alcotest.(check string) "cache hit serves identical v2 bytes" a b;
          let _ =
            send ~id:8 ~meth:"update"
              ~params:
                (Json.Obj
                   [
                     ("session", Json.String "v2ck");
                     ( "deltas",
                       Json.List
                         [
                           Json.List
                             [ Json.String "vertex"; Json.Int 0; Json.Int 2 ];
                         ] );
                   ])
          in
          let c = resolve ~id:7 in
          let d = resolve ~id:7 in
          check_bool "update re-keys the v2 bytes" true (a <> c);
          Alcotest.(check string) "new version replays byte-identically" c d))

let test_loopback_concurrent_updates () =
  (* Additive deltas commute, so concurrent updaters racing through the
     EDF admission queue must land on the same final weights no matter
     the interleaving; the version count equals the accepted batches. *)
  with_server (fun srv ->
      let port = Server.port srv in
      let _ = talk port [ open_line ~id:0 ~session:"race" ] in
      let workers = 4 and per_worker = 5 in
      let threads =
        List.init workers (fun w ->
            Thread.create
              (fun () ->
                let lines =
                  List.init per_worker (fun i ->
                      update_line
                        ~id:(100 + (w * per_worker) + i)
                        ~session:"race" {|[["vertex",1,1]]|})
                in
                List.iter
                  (fun line -> check_bool "update ok" true (contains line "ok"))
                  (talk port lines))
              ())
      in
      List.iter Thread.join threads;
      let total = workers * per_worker in
      let drifted =
        Chain.make
          ~alpha:[| 4; 2 + total; 7; 3; 5 |]
          ~beta:[| 6; 2; 9; 4 |]
      in
      let responses = talk port [ resolve_line ~id:1 ~session:"race" ~k:25 ] in
      Alcotest.(check string)
        "all updates landed"
        (reference_partition ~id:1 drifted ~k:25)
        (List.nth responses 0);
      let stats = List.nth (talk port [ {|{"id":2,"method":"stats"}|} ]) 0 in
      check_bool "stats count the batches" true
        (contains stats (Printf.sprintf {|"version":%d|} total)
        && contains stats (Printf.sprintf {|"updates":%d|} total)))

let suite =
  [
    Alcotest.test_case "store: open, find, digest" `Quick test_open_find_digest;
    Alcotest.test_case "store: generated ids" `Quick test_generated_ids;
    Alcotest.test_case "store: open rejections" `Quick test_open_rejections;
    Alcotest.test_case "store: update versions and rollback" `Quick
      test_update_versions_and_rollback;
    Alcotest.test_case "store: ttl eviction" `Quick test_ttl_eviction;
    Alcotest.test_case "store: tree sessions" `Quick test_tree_session;
    Alcotest.test_case "store: stats json" `Quick test_stats_json_shape;
    qcheck ~count:200 "session drift == from-scratch solve"
      session_differential_gen prop_session_matches_scratch;
    Alcotest.test_case "loopback: open/update/resolve" `Quick
      test_loopback_lifecycle;
    Alcotest.test_case "loopback: unknown and duplicate sessions" `Quick
      test_loopback_unknown_session;
    Alcotest.test_case "loopback: resolve after eviction" `Quick
      test_loopback_eviction_races_resolve;
    Alcotest.test_case "loopback: update re-keys the cache" `Quick
      test_loopback_cache_rekey;
    Alcotest.test_case "loopback: v2 cache bytes across update" `Quick
      test_loopback_v2_cache_bytes;
    Alcotest.test_case "loopback: concurrent updates commute" `Quick
      test_loopback_concurrent_updates;
  ]

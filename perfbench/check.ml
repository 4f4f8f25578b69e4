(* Answer checker and in-process replay.

   Every response is compared byte for byte (through its MD5) with the
   envelope the in-process [Handler] rendering of the regenerated
   request produces, after the [trace] member is stripped; a resolve is
   compared with a [partition] of the chain the generator tracks.  The
   reference answer also passes a cheap certificate: every component is
   within K and every reported weight equals the one recomputed from the
   cut.  Because a correct response is byte-equal to the reference, the
   certificate holds for the response too.

   Traced requests are additionally replayed through the public
   functions of each serving layer — decode, digest, cache lookup,
   solve, both renderings, cache insert, envelope — each call timed as
   a span under the request's client round trip. *)

module Json = Tlp_util.Json_out
module Binval = Tlp_util.Binval
module Bytebuf = Tlp_util.Bytebuf
module Chain = Tlp_graph.Chain
module Tree = Tlp_graph.Tree
module Io = Tlp_graph.Instance_io
module Protocol = Tlp_server.Protocol
module Frame = Tlp_server.Frame
module Handler = Tlp_server.Handler
module Cache = Tlp_server.Cache
module Session = Tlp_session.Session
module Incremental = Tlp_core.Incremental
module Client = Tlp_client.Client

(* ---------- received responses ---------- *)

type reply = {
  digest : Digest.t;  (** MD5 of the response with its trace stripped *)
  len : int;
  head : string;  (** first bytes, kept to name a failure *)
  trace : string option;  (** the raw trace member (JSON or Binval) *)
}

type outcome = Reply of reply | Lost of string

type sample = {
  seq : int;
  traced : bool;
  t0 : float;
  t1 : float;
  outcome : outcome;
}

exception Malformed

let read_varint s pos =
  let rec go pos shift acc =
    if pos >= String.length s || shift > 63 then raise Malformed;
    let b = Char.code s.[pos] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

(* End offset of the Binval value starting at [pos], without building
   it. *)
let rec skip_value s pos =
  if pos >= String.length s then raise Malformed;
  match Char.code s.[pos] with
  | 0 | 1 | 2 -> pos + 1
  | 3 -> snd (read_varint s (pos + 1))
  | 4 -> pos + 9
  | 5 ->
      let n, p = read_varint s (pos + 1) in
      p + n
  | 6 ->
      let n, p = read_varint s (pos + 1) in
      let p = ref p in
      for _ = 1 to n do
        p := skip_value s !p
      done;
      !p
  | 7 ->
      let n, p = read_varint s (pos + 1) in
      let p = ref p in
      for _ = 1 to n do
        let klen, q = read_varint s !p in
        p := skip_value s (q + klen)
      done;
      !p
  | _ -> raise Malformed

let skip_id s pos =
  if pos >= String.length s then raise Malformed;
  match Char.code s.[pos] with
  | 0 -> pos + 1
  | 1 -> snd (read_varint s (pos + 1))
  | 2 ->
      let n, p = read_varint s (pos + 1) in
      p + n
  | _ -> raise Malformed

let v1_trace_marker = ",\"trace\":{\"request_id\""

let rfind s sub =
  let m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i < 0 then None else if matches i 0 then Some i else go (i - 1) in
  go (String.length s - m)

(* [(untraced body, raw trace)]: a v1 traced line with its [trace]
   member cut out, or a v2 traced payload (status 3) re-tagged as
   status 1 with the trailing trace value cut off. *)
let split_trace (proto : Client.proto) raw =
  match proto with
  | Client.V1 -> (
      let n = String.length raw in
      match rfind raw v1_trace_marker with
      | Some i when n > 0 && raw.[n - 1] = '}' ->
          (String.sub raw 0 i ^ "}", Some (String.sub raw (i + 9) (n - i - 10)))
      | _ -> (raw, None))
  | Client.V2 -> (
      if String.length raw = 0 || raw.[0] <> '\003' then (raw, None)
      else
        match skip_value raw (skip_id raw 1) with
        | b ->
            ( "\001" ^ String.sub raw 1 (b - 1),
              Some (String.sub raw b (String.length raw - b)) )
        | exception Malformed -> (raw, None))

let reply proto ~traced raw =
  let body, trace = if traced then split_trace proto raw else (raw, None) in
  Reply
    {
      digest = Digest.string body;
      len = String.length body;
      head = String.sub raw 0 (min 160 (String.length raw));
      trace;
    }

let trace_json (proto : Client.proto) raw =
  match proto with
  | Client.V1 -> Json.parse raw
  | Client.V2 -> Binval.of_string raw

(* The wire error a failed reply carries, or a byte mismatch. *)
let failure_reason (proto : Client.proto) head =
  let v2_codes = [| "?"; "bad_request"; "overloaded"; "timeout"; "internal"; "unavailable" |] in
  match proto with
  | Client.V1 -> (
      let marker = "\"ok\":false,\"error\":{\"code\":\"" in
      match rfind head marker with
      | Some i ->
          let s = i + String.length marker in
          let e = try String.index_from head s '"' with Not_found -> s in
          "rpc " ^ String.sub head s (e - s)
      | None -> "mismatch")
  | Client.V2 ->
      if String.length head > 0 && head.[0] = '\000' then
        match skip_id head 1 with
        | p when p < String.length head ->
            let c = Char.code head.[p] in
            "rpc " ^ if c < Array.length v2_codes then v2_codes.(c) else "?"
        | _ | (exception Malformed) -> "rpc ?"
      else "mismatch"

(* ---------- reference answers ---------- *)

let instance_of = function
  | Gen.Chain { alpha; beta } -> Io.Chain_instance (Chain.make ~alpha ~beta)
  | Gen.Tree { weights; parents } ->
      Io.Tree_instance (Tree.of_parents ~weights ~parents)

let partition_doc ?workspace instance ~k ~algorithm =
  match Handler.partition_result ?workspace instance ~k ~algorithm with
  | Ok doc -> doc
  | Error e -> failwith ("perfbench: reference refused: " ^ e.Protocol.message)

let open_doc ~session ~n =
  Json.Obj
    [
      ("session", Json.String session);
      ("kind", Json.String "chain");
      ("n", Json.Int n);
      ("version", Json.Int 0);
    ]

let update_doc ~session ~version ~applied =
  Json.Obj
    [
      ("session", Json.String session);
      ("version", Json.Int version);
      ("applied", Json.Int applied);
    ]

(* [workspace] is the chain-bandwidth solver's reusable scratch, as the
   server passes one; the answer does not depend on it. *)
let expected_doc ?workspace (request : Gen.request) =
  match request with
  | Gen.Partition { inst; k; algorithm } ->
      partition_doc ?workspace (instance_of inst) ~k ~algorithm
  | Gen.Sweep { alpha; beta; ks; algorithm } ->
      Handler.sweep_result (Chain.make ~alpha ~beta) ~ks ~algorithm
  | Gen.Open { session; chain } -> open_doc ~session ~n:(Chain.n chain)
  | Gen.Update { session; deltas; version } ->
      update_doc ~session ~version ~applied:(List.length deltas)
  | Gen.Resolve { k; chain; _ } ->
      partition_doc ?workspace (Io.Chain_instance chain) ~k
        ~algorithm:Protocol.Bandwidth

let envelope (proto : Client.proto) buf ~id ~v1 ~v2 =
  match proto with
  | Client.V1 -> Protocol.render_ok ~id ~result:(Lazy.force v1)
  | Client.V2 ->
      Bytebuf.clear buf;
      Frame.encode_ok buf ~id ~result:(Lazy.force v2) ~trace:None;
      let s = Bytebuf.contents buf in
      String.sub s 4 (String.length s - 4)

(* ---------- certificate ---------- *)

let field name = function
  | Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let int_field name doc =
  match field name doc with
  | Some (Json.Int i) -> i
  | _ -> failwith (Printf.sprintf "missing integer %S" name)

let ints_field name doc =
  match field name doc with
  | Some (Json.List l) ->
      List.map (function Json.Int i -> i | _ -> failwith name) l
  | _ -> failwith (Printf.sprintf "missing list %S" name)

let require cond fmt =
  Printf.ksprintf (fun m -> if not cond then failwith m) fmt

let chain_certificate chain ~k doc =
  match field "infeasible" doc with
  | Some _ -> require (Chain.max_alpha chain > k) "infeasible but max weight <= k"
  | None ->
      let cut = ints_field "cut" doc in
      require (Chain.is_feasible chain ~k cut) "a component exceeds k=%d" k;
      require
        (int_field "weight" doc = Chain.cut_weight chain cut)
        "reported weight %d, cut weighs %d" (int_field "weight" doc)
        (Chain.cut_weight chain cut)

(* Feasibility against K plus the reported objective recomputed from
   the cut.  [Ok ()] or the first violated property. *)
let certificate (request : Gen.request) doc =
  match
    match request with
    | Gen.Partition { inst = Gen.Chain { alpha; beta }; k; algorithm } -> (
        let chain = Chain.make ~alpha ~beta in
        chain_certificate chain ~k doc;
        match (algorithm, field "infeasible" doc) with
        | Protocol.Bandwidth, None ->
            let cut = ints_field "cut" doc in
            require
              (ints_field "component_weights" doc
              = Chain.component_weights chain cut)
              "component weights differ from the cut's"
        | Protocol.Bottleneck, None ->
            let cut = ints_field "cut" doc in
            require
              (int_field "bottleneck" doc = Chain.max_cut_edge chain cut)
              "reported bottleneck is not the heaviest cut edge"
        | _ -> ())
    | Gen.Partition { inst = Gen.Tree { weights; parents }; k; algorithm } -> (
        let t = Tree.of_parents ~weights ~parents in
        match field "infeasible" doc with
        | Some _ -> require (Tree.max_weight t > k) "infeasible but max weight <= k"
        | None -> (
            let cut = ints_field "cut" doc in
            require (Tree.is_feasible t ~k cut) "a component exceeds k=%d" k;
            match algorithm with
            | Protocol.Bottleneck ->
                require
                  (int_field "bottleneck" doc = Tree.max_cut_edge t cut)
                  "reported bottleneck is not the heaviest cut edge"
            | Protocol.Procmin ->
                require
                  (int_field "components" doc = List.length cut + 1)
                  "component count differs from the cut's";
                require
                  (ints_field "component_weights" doc
                  = Tree.component_weights t cut)
                  "component weights differ from the cut's"
            | _ -> ()))
    | Gen.Sweep { alpha; beta; _ } -> (
        let chain = Chain.make ~alpha ~beta in
        match field "entries" doc with
        | Some (Json.List entries) ->
            List.iter
              (fun e -> chain_certificate chain ~k:(int_field "k" e) e)
              entries
        | _ -> failwith "missing entries")
    | Gen.Resolve { k; chain; _ } -> chain_certificate chain ~k doc
    | Gen.Open _ | Gen.Update _ -> ()
  with
  | () -> Ok ()
  | exception Failure m -> Error m
  | exception Invalid_argument m -> Error m

(* ---------- per-connection check and replay ---------- *)

(* Mirrors the server's cache key so the replay's lookups behave like
   the server's. *)
let cache_key (request : Protocol.request) =
  match request with
  | Protocol.Partition { instance; k; algorithm } ->
      let chain =
        match instance with Io.Chain_instance _ -> true | Io.Tree_instance _ -> false
      in
      Some
        {
          Cache.digest = Protocol.instance_digest instance;
          k = string_of_int k;
          objective = Protocol.partition_algorithm_string algorithm;
          algorithm =
            (match algorithm with
            | Protocol.Bandwidth -> if chain then "hitting" else "star_knapsack"
            | Protocol.Bottleneck -> if chain then "chain_bottleneck" else "alg21"
            | Protocol.Procmin -> if chain then "tree_pipeline" else "alg22"
            | Protocol.Pipeline -> "tree_pipeline");
        }
  | Protocol.Sweep { chain; ks; algorithm } ->
      Some
        {
          Cache.digest = Protocol.instance_digest (Io.Chain_instance chain);
          k = String.concat "," (List.map string_of_int (List.sort_uniq compare ks));
          objective = "bandwidth";
          algorithm =
            (match algorithm with
            | Tlp_engine.Ksweep.Deque -> "sweep:deque"
            | Tlp_engine.Ksweep.Hitting -> "sweep:hitting");
        }
  | _ -> None

let solve_span (request : Gen.request) =
  match request with
  | Gen.Partition { algorithm = Protocol.Bandwidth; _ } -> "core.bandwidth"
  | Gen.Partition { algorithm = Protocol.Bottleneck; _ } -> "core.bottleneck"
  | Gen.Partition { algorithm = Protocol.Procmin | Protocol.Pipeline; _ } ->
      "core.procmin"
  | Gen.Sweep _ -> "engine.ksweep"
  | Gen.Open _ | Gen.Update _ | Gen.Resolve _ -> "session"

type ctx = {
  workload : Gen.workload;
  proto : Client.proto;
  buf : Bytebuf.t;
  cache : Cache.t;
  sessions : Session.t;
  memo : (int, Digest.t * int) Hashtbl.t;  (** hot-repeat key -> envelope *)
  ws : Tlp_core.Bandwidth_hitting.Workspace.t;
}

type report = {
  failures : (int * string) list;  (** (seq, reason), ascending *)
  replayed : int;
  alloc_words : float list;  (** per replayed request *)
}

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Keep the in-process session in step with the server's: every update
   and resolve is applied, traced or not, so the replayed resolves take
   the same incremental or full path the server does. *)
let session_op ctx ~time (request : Gen.request) =
  match request with
  | Gen.Open { session; chain } ->
      ignore
        (Session.open_session ctx.sessions ~name:session
           ~instance:(Io.Chain_instance chain)
           ~now:0.0 ()
          : (Session.session, string) result)
  | Gen.Update { session; deltas; _ } -> (
      match Session.find ctx.sessions ~id:session ~now:0.0 with
      | Some s ->
          time "session.update" (fun () ->
              ignore (Session.update s deltas : (int, string) result))
      | None -> ())
  | Gen.Resolve { session; k; _ } -> (
      match Session.find ctx.sessions ~id:session ~now:0.0 with
      | Some s ->
          time "session.resolve" (fun () ->
              Session.with_session s (fun () ->
                  match Session.view s with
                  | Session.Chain_view incr ->
                      ignore
                        (Incremental.resolve ~workspace:ctx.ws incr ~k
                          : (_, _) result)
                  | Session.Tree_view _ -> ()))
      | None -> ())
  | Gen.Partition _ | Gen.Sweep _ -> ()

let make_ctx workload ~conn ~seed ~conns =
  let ctx =
    {
      workload;
      proto = Gen.framing workload ~conn;
      buf = Bytebuf.create 4096;
      cache = Cache.create ~capacity:256;
      sessions = Session.create ~ttl_s:0.0 ();
      memo = Hashtbl.create 256;
      ws = Tlp_core.Bandwidth_hitting.Workspace.create 16;
    }
  in
  (if workload = Gen.Hot_repeat then
     (* The server's cache holds every key after set-up; so does the
        replay's.  Each key's reference envelope is rendered once. *)
     let keys = Gen.hot_key_set (fst (Gen.conn_rng ~seed ~conns ~conn)) in
     Array.iteri
       (fun i (request : Gen.request) ->
         match request with
         | Gen.Partition { inst; k; algorithm } -> (
             let instance = instance_of inst in
             let doc = partition_doc instance ~k ~algorithm in
             (match certificate request doc with
             | Ok () -> ()
             | Error m -> failwith ("perfbench: hot key certificate: " ^ m));
             let env =
               envelope ctx.proto ctx.buf ~id:(Json.Int i)
                 ~v1:(lazy (Json.to_string doc))
                 ~v2:(lazy (Binval.to_string doc))
             in
             Hashtbl.replace ctx.memo i (Digest.string env, String.length env);
             match
               cache_key (Protocol.Partition { instance; k; algorithm })
             with
             | Some key ->
                 Cache.add ctx.cache key
                   { Cache.v1 = Json.to_string doc; v2 = Binval.to_string doc }
             | None -> ())
         | _ -> ())
       keys);
  ctx

let decode ctx (op : Gen.op) =
  match ctx.proto with
  | Client.V1 -> Result.map_error snd (Protocol.parse_frame op.wire)
  | Client.V2 ->
      Result.map_error snd
        (Frame.decode_request (Bytes.unsafe_of_string op.wire) ~pos:4
           ~len:(String.length op.wire - 4))

(* The traced replay of one request.  [doc] is the reference answer:
   for [partition] and [sweep] it is forced inside the solve span (it
   is the [Handler] call), for session methods the caller has forced
   it already, outside the replay.  Returns the envelope the replay
   renders, compared like any reference. *)
let replay ctx spans ~parent ~req ~doc (op : Gen.op) =
  let time name f = Spans.time spans ~parent ~req name f in
  let frame =
    time
      (match ctx.proto with
      | Client.V1 -> "protocol.parse_frame"
      | Client.V2 -> "frame.decode_request")
      (fun () -> decode ctx op)
  in
  let frame =
    match frame with
    | Ok f -> f
    | Error e -> failwith ("replay decode: " ^ e.Protocol.message)
  in
  let key =
    match op.request with
    | Gen.Partition _ | Gen.Sweep _ ->
        time "protocol.instance_digest" (fun () -> cache_key frame.Protocol.request)
    | Gen.Resolve { session; k; _ } ->
        Option.map
          (fun s ->
            {
              Cache.digest = Session.digest s;
              k = string_of_int k;
              objective = "bandwidth";
              algorithm = "hitting";
            })
          (Session.find ctx.sessions ~id:session ~now:0.0)
    | Gen.Open _ | Gen.Update _ -> None
  in
  let hit =
    match key with
    | Some key -> time "cache.find" (fun () -> Cache.find ctx.cache key)
    | None -> None
  in
  let entry =
    match hit with
    | Some entry -> entry
    | None ->
        let doc =
          match op.request with
          | Gen.Open _ | Gen.Update _ | Gen.Resolve _ ->
              session_op ctx ~time op.request;
              Lazy.force doc
          | Gen.Partition _ | Gen.Sweep _ ->
              time (solve_span op.request) (fun () -> Lazy.force doc)
        in
        let v1 = time "util.json_render" (fun () -> Json.to_string doc) in
        let v2 = time "util.binval_render" (fun () -> Binval.to_string doc) in
        let entry = { Cache.v1; v2 } in
        (match key with
        | Some key -> time "cache.add" (fun () -> Cache.add ctx.cache key entry)
        | None -> ());
        entry
  in
  time
    (match ctx.proto with
    | Client.V1 -> "protocol.render_ok"
    | Client.V2 -> "frame.encode_ok")
    (fun () ->
      envelope ctx.proto ctx.buf ~id:op.id ~v1:(lazy entry.Cache.v1)
        ~v2:(lazy entry.Cache.v2))

let reference ctx (op : Gen.op) =
  match Hashtbl.find_opt ctx.memo op.key with
  | Some e -> Ok e
  | None -> (
      session_op ctx ~time:(fun _ f -> f ()) op.request;
      let doc = expected_doc ~workspace:ctx.ws op.request in
      match certificate op.request doc with
      | Error m -> Error ("certificate: " ^ m)
      | Ok () ->
          let env =
            envelope ctx.proto ctx.buf ~id:op.id
              ~v1:(lazy (Json.to_string doc))
              ~v2:(lazy (Binval.to_string doc))
          in
          Ok (Digest.string env, String.length env))

(* Regenerate the connection's stream and check [samples] (every
   response the kept server sent on this connection, in order).  Up to
   [replay_budget] traced requests are replayed in-process and spanned
   into [spans]. *)
let check_conn ?spans ?(replay_budget = 0) workload ~seed ~conns ~conn samples
    =
  let ctx = make_ctx workload ~conn ~seed ~conns in
  let stream = Gen.stream workload ~seed ~conns ~conn in
  let failures = ref [] and replayed = ref 0 and allocs = ref [] in
  Array.iter
    (fun (s : sample) ->
      let op = stream.Gen.next ~trace:s.traced in
      assert (op.Gen.seq = s.seq);
      let fail reason = failures := (s.seq, reason) :: !failures in
      match s.outcome with
      | Lost e -> fail e
      | Reply r -> (
          let traced_replay =
            match (spans, r.trace) with
            | Some st, Some raw when s.traced && !replayed < replay_budget -> (
                match trace_json ctx.proto raw with
                | Ok tr -> Some (st, tr)
                | Error _ -> None)
            | _ -> None
          in
          let expected =
            match traced_replay with
            | None -> reference ctx op
            | Some (st, tr) ->
                let spans_of = field "spans" tr in
                let ms name =
                  match Option.bind spans_of (field name) with
                  | Some (Json.Float f) -> f /. 1e3
                  | Some (Json.Int i) -> float_of_int i /. 1e3
                  | _ -> 0.0
                in
                let req =
                  match field "request_id" tr with Some (Json.Int i) -> i | _ -> -1
                in
                let root =
                  Spans.add st ~parent:(-1) ~name:("rpc." ^ op.meth) ~start:s.t0
                    ~stop:s.t1 ~req
                in
                (* The server reports span durations only; they are laid
                   end to end from the start of the round trip. *)
                let at = ref s.t0 in
                List.iter
                  (fun name ->
                    let d = ms (name ^ "_ms") in
                    ignore
                      (Spans.add st ~parent:root ~name:("server." ^ name)
                         ~start:!at ~stop:(!at +. d) ~req
                        : int);
                    at := !at +. d)
                  [ "accept"; "queue"; "solve" ];
                incr replayed;
                let doc = lazy (expected_doc ~workspace:ctx.ws op.request) in
                (match op.request with
                | Gen.Open _ | Gen.Update _ | Gen.Resolve _ ->
                    ignore (Lazy.force doc : Json.t)
                | Gen.Partition _ | Gen.Sweep _ -> ());
                let w0 = words () in
                let rp = Spans.open_span st ~parent:root ~name:"replay" ~req in
                let env = replay ctx st ~parent:rp.Spans.p_sid ~req ~doc op in
                Spans.close_span st rp;
                allocs := (words () -. w0) :: !allocs;
                let certified =
                  (* A replay served from the cache solved nothing; its
                     entry was certified when it was filled. *)
                  if Lazy.is_val doc then certificate op.request (Lazy.force doc)
                  else Ok ()
                in
                match certified with
                | Error m -> Error ("certificate: " ^ m)
                | Ok () -> Ok (Digest.string env, String.length env)
          in
          match expected with
          | Error m -> fail m
          | Ok (d, len) ->
              if not (d = r.digest && len = r.len) then
                fail (failure_reason ctx.proto r.head)))
    samples;
  {
    failures = List.rev !failures;
    replayed = !replayed;
    alloc_words = !allocs;
  }

(* [(attempted, failed)] over [phases], each one sample array per
   connection: a sample failed when its connection's report lists its
   sequence number. *)
let tally (reports : report array) phases =
  let bad =
    Array.map
      (fun r ->
        let h = Hashtbl.create 16 in
        List.iter (fun (seq, _) -> Hashtbl.replace h seq ()) r.failures;
        h)
      reports
  in
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (Array.iteri (fun conn ->
         Array.iter (fun (s : sample) ->
             incr attempted;
             if Hashtbl.mem bad.(conn) s.seq then incr failed)))
    phases;
  (!attempted, !failed)

(* The run's [(correct, attempted, failed)].  [attempted] and [failed]
   cover every timed phase; [correct] also needs the warm-up and the
   discarded set-ups ([setup_failed] failures) to have failed nothing. *)
let verdict reports ~setup_failed ~warmup ~timed =
  let attempted, failed = tally reports timed in
  let _, warm_failed = tally reports [ warmup ] in
  (failed = 0 && warm_failed = 0 && setup_failed = 0, attempted, failed)

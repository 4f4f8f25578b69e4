module Json = Tlp_util.Json_out
module Timer = Tlp_util.Timer
module Rng = Tlp_util.Rng
module Bytebuf = Tlp_util.Bytebuf
module Protocol = Tlp_server.Protocol
module Sframe = Tlp_server.Frame
module Transport = Tlp_server.Transport
module Client = Tlp_client.Client
module Io = Tlp_graph.Instance_io

type config = {
  host : string;
  port : int;
  vnodes : int;
  ring_seed : int;
  ring_epoch : int;
  hedge_ms : int;
  shard_deadline_ms : int;
  pool_capacity : int;
  seed : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7270;
    vnodes = 64;
    ring_seed = 42;
    ring_epoch = 1;
    hedge_ms = 50;
    shard_deadline_ms = 30_000;
    pool_capacity = 8;
    seed = 0;
  }

type hedge_counters = {
  mutable fired : int;
  mutable primary_won : int;
  mutable secondary_won : int;
  mutable failover : int;
  mutable cancelled : int;
}

type shard_counters = { mutable proxied : int; mutable errors : int }

type t = {
  config : config;
  ring : Ring.t;
  transport : Transport.t;
  (* One (v1, v2) pool pair per ring member: pooled clients are
     protocol-bound, so the two framings never share a connection. *)
  pools : (Conn_pool.t * Conn_pool.t) array;
  started_at : float;
  stats_mutex : Mutex.t;  (** guards every counter below *)
  hedge : hedge_counters;
  per_shard : shard_counters array;
  mutable requests : int;
}

let port t = Transport.port t.transport
let ring t = t.ring

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ---------- shard calls ---------- *)

(* One proxied call to one shard: check a pooled client out, round-trip
   the raw request bytes, check it back in.  Up to two attempts, the
   second only after a transport fault — that absorbs a stale pooled
   connection (the shard restarted since the client last used it)
   without retrying anything a live shard might have executed twice
   from scratch: the client re-dials, and only a connection that never
   delivered a response is retried. *)
let shard_call t ~proto ~deadline_ms ~shard payload =
  let pool_v1, pool_v2 = t.pools.(shard) in
  let pool = match proto with Client.V1 -> pool_v1 | Client.V2 -> pool_v2 in
  let client = Conn_pool.checkout pool in
  let send () =
    match proto with
    | Client.V1 -> Client.round_trip client ~deadline_ms payload
    | Client.V2 -> Client.round_trip_frame client ~deadline_ms payload
  in
  let outcome =
    match send () with
    | Error (Client.Transport _) -> send ()
    | first -> first
  in
  Conn_pool.checkin pool client;
  locked t.stats_mutex (fun () ->
      let c = t.per_shard.(shard) in
      c.proxied <- c.proxied + 1;
      match outcome with Ok _ -> () | Error _ -> c.errors <- c.errors + 1);
  match outcome with
  | Ok raw -> (Hedge.Good, Ok raw)
  | Error e -> (Hedge.Bad, Error (shard, e))

(* Session state lives on exactly one shard, so every method naming a
   session must land where its [open] did: they all hash the session id.
   An [open] without a client-chosen name falls through to the raw-bytes
   key — the generated id is minted by whatever shard it lands on, and
   the client cannot follow up through the router (PROTOCOL.md §9
   requires named sessions in cluster mode). *)
let session_affinity (request : Protocol.request) =
  match request with
  | Protocol.Open { session = Some name; _ } -> Some name
  | Protocol.Update { session; _ } | Protocol.Resolve { session; _ } ->
      Some session
  | Protocol.Open { session = None; _ }
  | Protocol.Partition _ | Protocol.Sweep _ | Protocol.Verify _
  | Protocol.Sleep _ | Protocol.Stats | Protocol.Health | Protocol.Cluster ->
      None

(* The request's shard placement: instance-bearing methods route by
   the server's own digest of the instance (cache affinity — every
   replay of the instance lands on the shard whose LRU already holds
   it), session-bearing methods by the session id (state affinity),
   everything else by a digest of the raw request bytes. *)
let route_key ~raw (frame : Protocol.frame) =
  match session_affinity frame.Protocol.request with
  | Some sid -> Digest.to_hex (Digest.string ("session:" ^ sid))
  | None -> (
      match frame.Protocol.request with
      | Protocol.Partition { instance; _ } ->
          Protocol.instance_digest instance
      | Protocol.Sweep { chain; _ } ->
          Protocol.instance_digest (Io.Chain_instance chain)
      | _ -> Digest.to_hex (Digest.string raw))

(* Deadline-aware hedge delay: never spend more than half the
   request's own budget waiting before the second replica fires, or
   the hedge cannot finish inside the deadline either. *)
let hedge_delay_s t (frame : Protocol.frame) =
  let ms =
    match frame.Protocol.timeout_ms with
    | Some budget -> Stdlib.min t.config.hedge_ms (budget / 2)
    | None -> t.config.hedge_ms
  in
  float_of_int ms /. 1000.0

let record_verdict t (v : _ Hedge.verdict) =
  locked t.stats_mutex (fun () ->
      let h = t.hedge in
      if v.Hedge.fired then begin
        h.fired <- h.fired + 1;
        match v.Hedge.winner with
        | `Primary -> h.primary_won <- h.primary_won + 1
        | `Secondary -> h.secondary_won <- h.secondary_won + 1
      end;
      if v.Hedge.failover then h.failover <- h.failover + 1;
      h.cancelled <- h.cancelled + v.Hedge.cancelled)

(* Proxy one routable frame and return the shard's raw response bytes,
   or the routing error when every replica failed. *)
let proxy t ~proto ~raw frame =
  let key = route_key ~raw frame in
  let deadline_ms =
    match frame.Protocol.timeout_ms with
    | Some ms when ms > 0 -> Stdlib.min ms t.config.shard_deadline_ms
    | _ -> t.config.shard_deadline_ms
  in
  let primary = Ring.shard_of t.ring key in
  let call shard () = shard_call t ~proto ~deadline_ms ~shard raw in
  (* Never hedge a session method: the replica does not hold the
     session, and its "unknown session" reply is a well-formed response
     the race would happily declare the winner. *)
  let secondary =
    if Option.is_some (session_affinity frame.Protocol.request) then None
    else Option.map (fun s -> call s) (Ring.replica_of t.ring key)
  in
  let verdict =
    Hedge.race ?secondary ~delay_s:(hedge_delay_s t frame) (call primary)
  in
  record_verdict t verdict;
  match verdict.Hedge.value with
  | Ok raw -> Ok raw
  | Error (shard, e) ->
      let name = (Ring.shard t.ring shard).Ring.name in
      Error
        (Protocol.unavailable
           (Printf.sprintf "shard %s: %s" name (Client.error_to_string e)))

(* ---------- inline control plane ---------- *)

let cluster_doc t =
  match Ring.to_json t.ring with
  | Json.Obj fields -> Json.Obj (("role", Json.String "router") :: fields)
  | other -> other

let health_doc t =
  Json.Obj
    [
      ("status", Json.String "ok");
      ("role", Json.String "router");
      ("uptime_s", Json.Float (Timer.now () -. t.started_at));
    ]

let stats_doc t =
  locked t.stats_mutex (fun () ->
      Json.Obj
        [
          ("role", Json.String "router");
          ("ring_epoch", Json.Int (Ring.epoch t.ring));
          ("uptime_s", Json.Float (Timer.now () -. t.started_at));
          ("requests", Json.Int t.requests);
          ( "hedge",
            Json.Obj
              [
                ("delay_ms", Json.Int t.config.hedge_ms);
                ("fired", Json.Int t.hedge.fired);
                ("primary_won", Json.Int t.hedge.primary_won);
                ("secondary_won", Json.Int t.hedge.secondary_won);
                ("failover", Json.Int t.hedge.failover);
                ("cancelled", Json.Int t.hedge.cancelled);
              ] );
          ( "shards",
            Json.List
              (List.init (Ring.length t.ring) (fun i ->
                   let s = Ring.shard t.ring i in
                   let c = t.per_shard.(i) in
                   Json.Obj
                     [
                       ("name", Json.String s.Ring.name);
                       ("host", Json.String s.Ring.host);
                       ("port", Json.Int s.Ring.port);
                       ("proxied", Json.Int c.proxied);
                       ("errors", Json.Int c.errors);
                     ])) );
        ])

(* ---------- connections ---------- *)

(* A router reply, rendered for the connection's framing into the
   connection's own buffer (only its thread replies).  A shard's
   response is relayed verbatim: its v1 bytes are the line without the
   newline, its v2 bytes the payload without the length prefix — both
   restored here, so the client sees exactly what a direct connection
   would have produced. *)
type reply = Proxied of string | Doc of Json.t | Failed of Protocol.error

let send conn ~id reply =
  let buf = Transport.conn_buffer conn in
  let wire = Transport.wire conn in
  (match (wire, reply) with
  | Transport.V1, Proxied raw -> Bytebuf.add_string buf raw
  | Transport.V1, Doc doc ->
      Bytebuf.add_string buf
        (Protocol.render_ok ~id ~result:(Json.to_string doc))
  | Transport.V1, Failed err ->
      Bytebuf.add_string buf (Protocol.render_error ~id err)
  | Transport.V2, Proxied raw ->
      Bytebuf.add_u32_be buf (String.length raw);
      Bytebuf.add_string buf raw
  | Transport.V2, Doc doc -> Sframe.encode_ok_doc buf ~id ~doc ~trace:None
  | Transport.V2, Failed err -> Sframe.encode_error buf ~id err);
  if wire = Transport.V1 then Bytebuf.add_char buf '\n';
  Transport.send conn buf

(* One frame, strictly sequential per connection (the hedge race
   blocks this connection's thread, never another's).  The shard-bound
   copy of a v2 frame keeps its length prefix, the four bytes before
   [pos]: [round_trip_frame] sends its argument verbatim. *)
let handle_frame t conn bytes ~pos ~len =
  let proto, raw, parsed =
    match Transport.wire conn with
    | Transport.V1 ->
        let line = Bytes.sub_string bytes pos len in
        (Client.V1, line, Protocol.parse_frame line)
    | Transport.V2 ->
        ( Client.V2,
          Bytes.sub_string bytes (pos - 4) (len + 4),
          Sframe.decode_request bytes ~pos ~len )
  in
  locked t.stats_mutex (fun () -> t.requests <- t.requests + 1);
  match parsed with
  | Error (id, err) -> send conn ~id (Failed err)
  | Ok (frame : Protocol.frame) -> (
      let id = frame.Protocol.id in
      match frame.Protocol.request with
      | Protocol.Stats -> send conn ~id (Doc (stats_doc t))
      | Protocol.Health -> send conn ~id (Doc (health_doc t))
      | Protocol.Cluster -> send conn ~id (Doc (cluster_doc t))
      | Protocol.Partition _ | Protocol.Sweep _ | Protocol.Verify _
      | Protocol.Sleep _ | Protocol.Open _ | Protocol.Update _
      | Protocol.Resolve _ -> (
          match proxy t ~proto ~raw frame with
          | Ok raw -> send conn ~id (Proxied raw)
          | Error err -> send conn ~id (Failed err)))

(* ---------- lifecycle ---------- *)

let start config shards =
  let ring =
    Ring.create ~epoch:config.ring_epoch ~vnodes:config.vnodes
      ~seed:config.ring_seed shards
  in
  let transport = Transport.listen ~host:config.host ~port:config.port in
  let rng = Rng.create (config.seed lxor 0x726f7574) in
  let pools =
    Array.map
      (fun (s : Ring.shard) ->
        let mk proto =
          Conn_pool.create ~capacity:config.pool_capacity ~host:s.Ring.host
            ~port:s.Ring.port ~proto ~rng:(Rng.split rng) ()
        in
        (mk Client.V1, mk Client.V2))
      shards
  in
  let t =
    {
      config;
      ring;
      transport;
      pools;
      started_at = Timer.now ();
      stats_mutex = Mutex.create ();
      hedge =
        { fired = 0; primary_won = 0; secondary_won = 0; failover = 0;
          cancelled = 0 };
      per_shard =
        Array.map (fun _ -> { proxied = 0; errors = 0 }) shards;
      requests = 0;
    }
  in
  Transport.serve transport ~frame:(handle_frame t) ~error:(fun conn err ->
      send conn ~id:Json.Null (Failed err));
  t

let stop t = Transport.stop t.transport

let wait t =
  Transport.wait t.transport ~after_connections:(fun () ->
      Array.iter
        (fun (a, b) ->
          Conn_pool.drain a;
          Conn_pool.drain b)
        t.pools)

let run config shards =
  let t = start config shards in
  Transport.handle_signals t.transport;
  t

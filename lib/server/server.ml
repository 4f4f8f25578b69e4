module Json = Tlp_util.Json_out
module Metrics = Tlp_util.Metrics
module Timer = Tlp_util.Timer
module Bytebuf = Tlp_util.Bytebuf
module Pool = Tlp_engine.Pool

type config = {
  host : string;
  port : int;
  jobs : int;
  queue_capacity : int;
  cache_capacity : int;
  default_timeout_ms : int option;
  seed : int;
  enable_debug : bool;
  session_ttl_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7171;
    jobs = 4;
    queue_capacity = 64;
    cache_capacity = 256;
    default_timeout_ms = Some 30_000;
    seed = 0;
    enable_debug = false;
    session_ttl_s = Tlp_session.Session.default_ttl_s;
  }

(* A job is an admitted frame plus everything needed to answer it from a
   worker thread: the absolute deadline, the connection to reply on
   (which holds the job until [finish] answers it), and (for tracing)
   the server-assigned request id and the accept/enqueue timestamps. *)
type job = {
  frame : Protocol.frame;
  deadline : float option;
  conn : Transport.conn;
  rng : Tlp_util.Rng.t;
  request_id : int;
  t_accept : float;  (* read off the socket, before parsing *)
  t_queued : float;  (* pushed onto the admission queue *)
}

type t = {
  config : config;
  transport : Transport.t;
  server_state : State.t;
  queue : job Admission.t;
  pool : Pool.t;
  mutable workers : Thread.t list;
}

let port t = Transport.port t.transport
let state t = t.server_state

(* Render one response, [Ok (payload, trace)] or [Error err], into [buf]
   for the connection's framing and send it; returns the (render-done,
   write-done) timestamps for the trace spans. [buf] is the replying
   thread's own (a worker's, or the connection's), so only the write
   takes the connection's lock. The v1 path splices a [Rendered]
   entry's JSON text into a newline-terminated envelope, byte-for-byte
   the pre-v2 server's; the v2 path splices its Binval bytes into a
   length-prefixed frame. *)
let[@tlp.hot] conn_respond buf conn ~id body =
  Bytebuf.clear buf;
  (match Transport.wire conn with
  | Transport.V1 ->
      (match body with
      | Ok (payload, trace) ->
          let result =
            match payload with
            | Handler.Rendered entry -> entry.Cache.v1
            | Handler.Doc doc -> Json.to_string doc
          in
          Bytebuf.add_string buf
            (match trace with
            | Some trace -> Protocol.render_ok_traced ~id ~result ~trace
            | None -> Protocol.render_ok ~id ~result)
      | Error err -> Bytebuf.add_string buf (Protocol.render_error ~id err));
      Bytebuf.add_char buf '\n'
  | Transport.V2 -> (
      match body with
      | Ok (payload, trace) -> (
          match payload with
          | Handler.Rendered entry ->
              Frame.encode_ok buf ~id ~result:entry.Cache.v2 ~trace
          | Handler.Doc doc -> Frame.encode_ok_doc buf ~id ~doc ~trace)
      | Error err -> Frame.encode_error buf ~id err));
  let t_rendered = Timer.now () in
  Transport.send conn buf;
  let t_written = Timer.now () in
  (t_rendered, t_written)

(* Errors answered on the connection thread, before or instead of
   admission. *)
let send_error t conn ~id err =
  State.with_lock t.server_state (fun () ->
      State.record_error t.server_state
        ~code:(Protocol.error_code_string err.Protocol.code));
  ignore
    (conn_respond (Transport.conn_buffer conn) conn ~id (Error err)
      : float * float)

(* ---------- tracing ---------- *)

let ms a b = (b -. a) *. 1000.0

(* Render the outcome into a response line, write it, and — when the
   frame asked for a trace — append the full span log to the slow ring.
   Success envelopes additionally carry the spans known at render time
   (accept/queue/solve); render and write can only land in the ring,
   since the response bytes are already fixed when they complete.
   Untraced requests take the [None] branch of every decision here, so
   their bytes are exactly the pre-tracing rendering.

   [executed] marks jobs that actually ran the handler (vs control-plane
   inlines and queued-deadline expiries): only those feed the
   service-time estimator, and only an executed success finishing at or
   past its deadline counts as an overrun — answered anyway, but
   tallied per method and, when traced, visible as an [overrun_ms]
   span. *)
let finish t buf job ~t_dispatch ~executed outcome =
  let frame = job.frame in
  let t_solved = Timer.now () in
  let meth = Protocol.method_name frame.Protocol.request in
  let overrun_ms_opt =
    match (outcome, job.deadline) with
    | Ok _, Some d when executed && t_solved >= d -> Some (ms d t_solved)
    | _ -> None
  in
  if executed then
    State.with_lock t.server_state (fun () ->
        State.observe_service t.server_state ~meth
          ~ns:((t_solved -. t_dispatch) *. 1e9);
        match overrun_ms_opt with
        | Some o_ms ->
            State.record_overrun t.server_state ~meth ~ns:(o_ms *. 1e6)
        | None -> ());
  let body, ok =
    match outcome with
    | Ok payload ->
        let trace =
          if frame.Protocol.trace then
            let spans =
              [
                ("accept_ms", Json.Float (ms job.t_accept job.t_queued));
                ("queue_ms", Json.Float (ms job.t_queued t_dispatch));
                ("solve_ms", Json.Float (ms t_dispatch t_solved));
              ]
              @ (match overrun_ms_opt with
                | Some o_ms -> [ ("overrun_ms", Json.Float o_ms) ]
                | None -> [])
            in
            Some
              (Json.Obj
                 [
                   ("request_id", Json.Int job.request_id);
                   ("spans", Json.Obj spans);
                 ])
          else None
        in
        (Ok (payload, trace), true)
    | Error err ->
        State.with_lock t.server_state (fun () ->
            State.record_error t.server_state
              ~code:(Protocol.error_code_string err.Protocol.code));
        (Error err, false)
  in
  let t_rendered, t_written =
    conn_respond buf job.conn ~id:frame.Protocol.id body
  in
  Transport.release job.conn;
  if frame.Protocol.trace then begin
    State.with_lock t.server_state (fun () ->
        State.record_trace t.server_state
          {
            State.request_id = job.request_id;
            client_id = frame.Protocol.id;
            meth = Protocol.method_name frame.Protocol.request;
            ok;
            accept_ms = ms job.t_accept job.t_queued;
            queue_ms = ms job.t_queued t_dispatch;
            solve_ms = ms t_dispatch t_solved;
            render_ms = ms t_solved t_rendered;
            write_ms = ms t_rendered t_written;
            total_ms = ms job.t_accept t_written;
          })
  end

(* ---------- worker threads ---------- *)

(* Run the handler on a pool domain (single-item parallel_map: the
   worker thread blocks while one domain computes).  The job's private
   metrics sink is written only on that domain, then merged into the
   server sink after the join — the same single-writer discipline as
   Batch.solve_batch. *)
let cluster_doc t =
  Handler.solo_cluster_doc ~host:t.config.host ~port:(port t)

let execute t buf job =
  let t_dispatch = Timer.now () in
  let request_metrics = Metrics.create () in
  let outcome =
    (Pool.parallel_map t.pool
       (fun job ->
         match
           Handler.handle ~state:t.server_state
             ~queue_depth:(fun () -> Admission.length t.queue)
             ~cluster:(cluster_doc t) ~debug:t.config.enable_debug ~rng:job.rng
             ~metrics:request_metrics job.frame.Protocol.request
         with
         | outcome -> outcome
         | exception e ->
             Error (Protocol.internal (Printexc.to_string e)))
       [| job |]).(0)
  in
  State.with_lock t.server_state (fun () ->
      State.merge_request_metrics t.server_state request_metrics);
  finish t buf job ~t_dispatch ~executed:true outcome

(* Each worker renders its replies into a buffer of its own. *)
let worker_loop t =
  let buf = Bytebuf.create 4096 in
  let rec loop () =
    match Admission.pop t.queue with
    | None -> () (* closed and drained *)
    | Some job ->
        (match job.deadline with
        | Some d when Timer.now () >= d ->
            (* [>=]: a deadline hit exactly at dispatch is already
               missed — work only counts if it finishes inside it. *)
            finish t buf job ~t_dispatch:(Timer.now ()) ~executed:false
              (Error (Protocol.timeout "deadline expired while queued"))
        | _ -> execute t buf job);
        loop ()
  in
  loop ()

(* ---------- connection threads ---------- *)

(* Control-plane methods are answered on the connection thread itself:
   health checks and stats must respond even when the solve queue is
   saturated — that is what they are for. *)
let control_plane (request : Protocol.request) =
  match request with
  | Protocol.Stats | Protocol.Health | Protocol.Cluster -> true
  | Protocol.Partition _ | Protocol.Sweep _ | Protocol.Verify _
  | Protocol.Sleep _ | Protocol.Open _ | Protocol.Update _
  | Protocol.Resolve _ ->
      false

(* Admission of one parsed frame — shared by both framings; only the
   parse/decode step and the reply rendering differ per protocol. *)
let handle_parsed t conn ~t_accept parsed =
  begin
    match parsed with
    | Error (id, err) -> send_error t conn ~id err
    | Ok frame ->
        let request = frame.Protocol.request in
        let request_id =
          State.with_lock t.server_state (fun () ->
              State.record_request t.server_state
                ~meth:(Protocol.method_name request))
        in
        if control_plane request then begin
          let metrics = Metrics.create () in
          let rng = State.with_lock t.server_state (fun () ->
              State.next_rng t.server_state)
          in
          (* Answered inline: queue time is zero by construction. *)
          let t_queued = Timer.now () in
          let job =
            {
              frame;
              deadline = None;
              conn;
              rng;
              request_id;
              t_accept;
              t_queued;
            }
          in
          Transport.hold conn;
          finish t (Transport.conn_buffer conn) job ~t_dispatch:t_queued
            ~executed:false
            (Handler.handle ~state:t.server_state
               ~queue_depth:(fun () -> Admission.length t.queue)
               ~cluster:(cluster_doc t) ~debug:t.config.enable_debug ~rng
               ~metrics request)
        end
        else if Transport.stopping t.transport then
          send_error t conn ~id:frame.Protocol.id
            (Protocol.overloaded "server is draining")
        else begin
          let now = Timer.now () in
          let deadline =
            let ms =
              match frame.Protocol.timeout_ms with
              | Some ms -> Some ms
              | None -> t.config.default_timeout_ms
            in
            Option.map (fun ms -> now +. (float_of_int ms /. 1000.0)) ms
          in
          (* Early shedding: a request that cannot meet its deadline is
             answered now instead of queuing doomed work.  An already
             expired deadline (timeout_ms 0) is a structured [timeout];
             a deadline the queue depth and the per-method service-time
             estimate say is unmeetable is [overloaded].  Methods with
             no completed sample predict 0 and are never shed. *)
          let meth = Protocol.method_name request in
          let expired =
            match deadline with Some d -> d <= now | None -> false
          in
          let doomed =
            (not expired)
            &&
            match deadline with
            | None -> false
            | Some d ->
                let est_ns =
                  State.with_lock t.server_state (fun () ->
                      State.predict_service_ns t.server_state ~meth)
                in
                est_ns > 0.0
                && (let depth = Admission.length t.queue in
                    now +. (float_of_int (depth + 1) *. est_ns *. 1e-9) > d)
          in
          if expired then
            send_error t conn ~id:frame.Protocol.id
              (Protocol.timeout "deadline already expired on arrival")
          else if doomed then begin
            State.with_lock t.server_state (fun () ->
                State.record_shed t.server_state);
            send_error t conn ~id:frame.Protocol.id
              (Protocol.overloaded "deadline unmeetable at current load")
          end
          else begin
            let rng = State.with_lock t.server_state (fun () ->
                State.next_rng t.server_state)
            in
            let job =
              {
                frame;
                deadline;
                conn;
                rng;
                request_id;
                t_accept;
                t_queued = Timer.now ();
              }
            in
            Transport.hold conn;
            if
              not
                (Admission.try_push t.queue
                   ~priority:frame.Protocol.priority ~deadline job)
            then begin
              (* Undo the optimistic hold: the job was never admitted. *)
              Transport.release conn;
              send_error t conn ~id:frame.Protocol.id
                (Protocol.overloaded
                   (if Admission.closed t.queue then "server is draining"
                    else "admission queue full"))
            end
          end
        end
  end

let handle_frame t conn bytes ~pos ~len =
  let t_accept = Timer.now () in
  handle_parsed t conn ~t_accept
    (match Transport.wire conn with
    | Transport.V1 -> Protocol.parse_frame (Bytes.sub_string bytes pos len)
    | Transport.V2 -> Frame.decode_request bytes ~pos ~len)

(* ---------- lifecycle ---------- *)

let start config =
  let jobs = Stdlib.max 1 config.jobs in
  let transport = Transport.listen ~host:config.host ~port:config.port in
  let t =
    {
      config = { config with jobs };
      transport;
      server_state =
        State.create ~cache_capacity:config.cache_capacity
          ~queue_capacity:config.queue_capacity ~seed:config.seed
          ~session_ttl_s:config.session_ttl_s ();
      queue = Admission.create ~capacity:config.queue_capacity ();
      pool = Pool.create ~jobs;
      workers = [];
    }
  in
  t.workers <- List.init jobs (fun _ -> Thread.create (fun () -> worker_loop t) ());
  Transport.serve transport ~frame:(handle_frame t) ~error:(fun conn err ->
      send_error t conn ~id:Json.Null err);
  t

let stop t = Transport.stop t.transport

(* Drain order: the listener closes; closing the queue lets the workers
   answer every admitted job and exit; each connection then closes once
   its held replies are written; the domain pool goes last. *)
let wait t =
  Transport.wait t.transport
    ~after_accept:(fun () ->
      Admission.close t.queue;
      List.iter Thread.join t.workers)
    ~after_connections:(fun () -> Pool.shutdown t.pool)

let run config =
  let t = start config in
  Transport.handle_signals t.transport;
  t

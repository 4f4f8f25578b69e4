(** The connection transport that [tlp_serve] ({!Server}) and
    [tlp_route] ([Tlp_route.Router]) share: listener, accept loop, a
    thread per connection, framing negotiation, the v1 and v2 read
    loops, the frame limit and the start/stop/wait lifecycle.  A daemon
    plugs in a per-frame and an error-reply callback ({!serve}).

    The accept loop and every connection read wake at least every
    0.2 s, so {!stop} is noticed promptly.  A connection's first byte
    picks its framing: [0xf2] opens the v2 hello ({!Frame.hello},
    echoed once complete; a wrong hello closes without a reply),
    anything else starts a v1 JSON line.  Blank v1 lines are skipped; a
    final unterminated v1 line at EOF is still served; a partial v2
    frame is dropped.  A frame over {!max_frame_bytes} — a v1 line,
    terminated or not, or a v2 length prefix — gets one [bad_request]
    with id [null], then the connection closes.  A closing connection
    first waits for every reply it {!hold}s. *)

val max_frame_bytes : int
(** 4 MiB, for both framings. *)

type wire = V1 | V2  (** the framing a connection negotiated *)

type conn

val wire : conn -> wire

val conn_buffer : conn -> Tlp_util.Bytebuf.t
(** The connection thread's pooled reply buffer, cleared.  Only the
    {!serve} callbacks, which run on that thread, may use it; other
    threads render their replies into buffers of their own. *)

val send : conn -> Tlp_util.Bytebuf.t -> unit
(** Write one rendered reply under the connection's write lock, so
    replies from several threads never interleave.  After a write
    error, sends are no-ops. *)

val hold : conn -> unit
(** Count one reply the connection owes; it stays open until the
    matching {!release}. *)

val release : conn -> unit

type t

val listen : host:string -> port:int -> t
(** Bind and listen ([port = 0] picks one), and ignore SIGPIPE so a
    peer hanging up mid-reply cannot kill the daemon.  Raises
    [Unix.Unix_error] if the address cannot be bound. *)

val port : t -> int
(** The bound port. *)

val serve :
  t ->
  frame:(conn -> Bytes.t -> pos:int -> len:int -> unit) ->
  error:(conn -> Protocol.error -> unit) ->
  unit
(** Start accepting in a background thread.  [frame] gets each complete
    frame on its connection's thread: a non-blank v1 line without its
    newline, or a v2 payload whose length prefix is the four bytes
    before [pos].
    The slice is valid only during the call.  [error] answers a frame
    over the limit. *)

val stop : t -> unit
(** Begin the drain; returns at once and only sets an atomic flag, so
    it is safe in a signal handler. *)

val stopping : t -> bool

val wait :
  ?after_accept:(unit -> unit) -> ?after_connections:(unit -> unit) -> t -> unit
(** Join the accept loop, run [after_accept], wait until every
    connection has closed, run [after_connections].  Later calls return
    at once. *)

val handle_signals : t -> unit
(** SIGTERM and SIGINT call {!stop}. *)

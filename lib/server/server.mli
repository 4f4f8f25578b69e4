(** The [tlp_serve] daemon on top of {!Transport}: decode, admission,
    worker threads, execution on a [Tlp_engine.Pool] domain pool, and
    reply rendering (see DESIGN.md §7 for the dataflow).

    - Each frame is handled on its connection's thread: control-plane
      methods ([health], [stats], [cluster]) and protocol errors are
      answered inline; solver work is pushed onto the bounded
      {!Admission} queue, and a full queue is answered [overloaded] at
      once, never waited on.
    - [jobs] worker threads pop admitted jobs, answer [timeout] for a
      job whose deadline passed while queued, and run the rest on the
      pool.  Replies carry the request [id], so pipelined requests may
      complete out of order.
    - {!stop} begins the drain: the listener closes, the queue refuses
      new work, every admitted request is still answered, then
      workers, connections and the pool are joined. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port — read it back with {!port} *)
  jobs : int;  (** worker threads = pool domains *)
  queue_capacity : int;  (** admission queue bound *)
  cache_capacity : int;  (** LRU result-cache entries; 0 disables *)
  default_timeout_ms : int option;
      (** per-request deadline when the frame carries none; [None] = no
          deadline *)
  seed : int;  (** roots the per-request RNG streams *)
  enable_debug : bool;  (** expose the [sleep] test method *)
  session_ttl_s : float;
      (** idle-session eviction threshold (PROTOCOL.md §9); [<= 0.0]
          disables eviction *)
}

val default_config : config
(** [127.0.0.1:7171], 4 jobs, queue 64, cache 256, 30s default timeout,
    seed 0, debug off, 600s session TTL. *)

type t

val start : config -> t
(** Bind, listen, spawn the accept/worker threads, and return.  Raises
    [Unix.Unix_error] if the address cannot be bound; ignores SIGPIPE
    ({!Transport.listen}). *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val state : t -> State.t

val stop : t -> unit
(** Request graceful drain.  Returns immediately; {!wait} observes the
    completion.  Idempotent, and safe to call from a signal handler
    context (it only flips an atomic flag). *)

val wait : t -> unit
(** Block until the server has fully drained: listener closed, admitted
    requests answered, worker and connection threads joined, domain pool
    shut down.  Returns immediately on a second call. *)

val run : config -> t
(** [start] plus SIGTERM/SIGINT handlers that {!stop} the returned
    server — the binary's entry point.  The caller still {!wait}s. *)

(** The [tlp_route] front tier: a consistent-hash proxy over a set of
    shared-nothing [tlp_serve] shards, speaking both [tlp.rpc/v1] and
    [/v2] framings.

    Connections are accepted, negotiated and read by
    {!Tlp_server.Transport}, as on a shard, and each is served strictly
    sequentially: the router parses each request just enough to pick a
    shard — {!Tlp_route.Ring.shard_of} on the request's instance digest
    — then forwards the {e raw request bytes} over a pooled
    {!Tlp_client.Client} and relays the shard's raw response back, so a
    response through the router is byte-identical to one from a direct
    connection (PROTOCOL.md §8 pins this).

    [stats], [health] and [cluster] are answered by the router itself:
    the first two because the control plane must respond even when
    shards are down, [cluster] because the ring {e is} the router's
    state — clients bootstrap shard discovery from any router address.

    Slow or dead shards are covered by hedging ({!Tlp_route.Hedge}):
    when the primary replica has not answered within the hedge delay
    (bounded by half the request's own [timeout_ms]), the request is
    also sent to the next distinct shard clockwise and the first good
    response wins.  A primary that fails outright triggers the
    secondary immediately (failover).  Only when {e every} replica
    fails does the client see an error — the structured [unavailable]
    code, never a hang or a dropped connection. *)

type config = {
  host : string;
  port : int;  (** [0] binds an ephemeral port; see {!port} *)
  vnodes : int;  (** ring points per shard *)
  ring_seed : int;  (** ring placement seed; must match across routers *)
  ring_epoch : int;  (** membership generation advertised by [cluster] *)
  hedge_ms : int;
      (** hedge delay: how long the primary may stay silent before the
          replica is tried; capped per request at [timeout_ms / 2] *)
  shard_deadline_ms : int;
      (** per-shard-call deadline for requests that carry no
          [timeout_ms] of their own *)
  pool_capacity : int;  (** idle connections kept per (shard, framing) *)
  seed : int;  (** client backoff jitter master *)
}

val default_config : config
(** Port 7270, 64 vnodes, ring seed 42, 50 ms hedge delay, 30 s shard
    deadline, 8 pooled connections. *)

type t

val start : config -> Ring.shard array -> t
(** Bind, listen, and start the accept loop in a background thread.
    @raise Invalid_argument on an empty or duplicate-named shard list
    (from {!Ring.create});
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The actually bound port ([config.port] unless it was [0]). *)

val ring : t -> Ring.t
(** The ring this router announces and routes by. *)

val stop : t -> unit
(** Ask the router to shut down: stop accepting, let connection loops
    notice on their next receive tick.  Non-blocking; {!wait} joins. *)

val wait : t -> unit
(** Join the accept loop and every live connection, then drain the
    connection pools.  Idempotent. *)

val run : config -> Ring.shard array -> t
(** {!start} plus SIGTERM/SIGINT handlers that invoke {!stop} — the
    daemon entrypoint ([bin/tlp_route.ml] calls this then {!wait}). *)

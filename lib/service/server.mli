(** Persistent joinopt server: a long-lived request loop layering
    admission control, graceful degradation and crash-safe plan-cache
    persistence on the optimizer.

    The request/response wire format is {!Protocol} (one JSON object
    per line); the loop runs over raw file descriptors — stdin/stdout
    ({!serve_fds}) or a Unix-domain socket ({!serve_socket}) — with its
    own line reassembly, so the poll loop can multiplex connections and
    notice shutdown signals between reads.

    {b Concurrency and supervision.} The poll loop only parses and
    admits: every admitted line is enqueued onto a bounded work queue
    consumed by [sv_jobs] worker domains ({!Milp.Work_pool}), so a slow
    or stalled request occupies one worker while every other connection
    keeps being served. Responses re-enter the loop through a
    per-connection ordered sink — per-connection response order and the
    exactly-one-response-per-line invariant hold no matter how workers
    interleave. A watchdog domain supervises every in-flight solve: past
    its deadline plus [sv_watchdog_grace] the request's isolated budget
    is cancelled ({!Milp.Budget.sub} with [~isolate:true]); a solve that
    ignores the cancellation for another grace period is force-answered
    with an honest error (a strike on the degradation ladder) and its
    eventual result is dropped. Slow consumers are bounded too: a client
    that stops reading while more than [sv_max_write_buf] bytes of
    answers accumulate is evicted, never buffered without bound.

    Robustness layers, outermost first:

    - {b Admission control.} A token bucket per client ([rate] tokens
      per second, capacity [burst]) plus a global pending-queue depth
      limit. Work that would exceed either limit is answered
      immediately with [status:"rejected"], [reason:"overload:rate"] /
      ["overload:queue"] — a definitive response, never a silent stall.
    - {b Per-request deadlines.} Every optimize runs under
      {!Milp.Budget.sub} of the server's lifetime budget, so one
      SIGTERM cancels every in-flight solve cooperatively, and a
      client's requested budget can never exceed [max_limit].
    - {b Retry with backoff.} A solve attempt that dies (an injected
      abort, a transient numeric crash) is retried up to [retries]
      times with exponentially growing pauses, as long as the request's
      budget has time left.
    - {b Degradation ladder.} A request whose exact path fails or times
      out falls back to a warm cache entry at another precision, then
      to the greedy heuristic — tagged [degraded:true] with a
      [degraded:*] provenance, never mislabeled as exact. After
      [degrade_after] consecutive exact-path strikes the server enters
      degraded *mode* and answers from the cache or the heuristic
      without touching the MILP at all, probing the exact path every
      [probe_every]-th request to recover. Degraded plans are never
      inserted into the cache.
    - {b Decomposition.} A request whose query falls under the server's
      (or its own [decompose] field's) decomposition policy is
      partitioned and solved cluster-by-cluster ({!Decomp.Decompose})
      instead of hitting the monolithic solver; the answer and its cache
      entry carry [decomposed:true], a ["decomposed:…"] provenance, and
      are never served to requests expecting a monolithic certified
      solve.
    - {b Crash-safe persistence.} The plan cache is snapshotted through
      the {!Milp.Checkpoint} envelope every [snapshot_every] admitted
      optimize requests and at graceful shutdown; a damaged or
      truncated snapshot is detected at startup and dropped to a cold
      cache with the reason recorded in [stats]. *)

type config = {
  sv_cache_capacity : int;
  sv_snapshot_path : string option;
  sv_snapshot_every : int;
      (** snapshot after every N admitted optimize requests; [0] means
          only on explicit request / graceful shutdown *)
  sv_rate : float;  (** token-bucket refill per second per client *)
  sv_burst : float;  (** token-bucket capacity; [0.] disables rate admission *)
  sv_max_queue : int;  (** pending requests beyond this are rejected *)
  sv_default_limit : float;  (** per-request budget when the client names none *)
  sv_max_limit : float;  (** hard cap on client-requested budgets *)
  sv_retries : int;  (** transient-failure retries per request *)
  sv_backoff : float;  (** first retry pause, seconds; doubles per retry *)
  sv_degrade_after : int;
      (** consecutive exact-path strikes before degraded mode; [0] never *)
  sv_probe_every : int;
      (** in degraded mode, retry the exact path on every k-th request *)
  sv_jobs : int;  (** concurrent request-executor worker domains *)
  sv_precision : Joinopt.Thresholds.precision;
  sv_cost : Joinopt.Cost_enc.spec;
  sv_warm : Protocol.warm_mode;
      (** warm-start mode for requests that do not name one;
          default [Warm_cache] *)
  sv_decomp : Joinopt.Optimizer.decomp_config;
      (** decomposition policy for requests that do not name one; the
          default is {!Joinopt.Optimizer.default_decomp} with policy
          [Dc_auto], so queries past the monolithic ceiling are
          partitioned instead of refused. A request's [decompose] field
          overrides only the policy; cluster-size and seam knobs stay
          server-wide. *)
  sv_max_conns : int;
      (** simultaneous socket connections; further accepts are answered
          [rejected:overload:conns] and closed *)
  sv_backlog : int;  (** [Unix.listen] backlog of the server socket *)
  sv_max_write_buf : int;
      (** bytes of unread responses a connection may accumulate before
          the slow client is evicted *)
  sv_watchdog_grace : float;
      (** seconds past a request's deadline before the watchdog cancels
          its budget; the same again before it force-answers *)
  sv_drain_limit : float;
      (** graceful-shutdown window: seconds in-flight solves may keep
          running before the drain cancels them *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
(** Build the server state; when [sv_snapshot_path] names an existing
    file the plan cache is restored from it, and a damaged snapshot is
    dropped (cold start) with the reason kept for [stats] — never an
    exception. *)

val handle_line : t -> ?client:string -> string -> string
(** Parse, admit and serve one request line; returns the one-line
    response. [client] is a transport-level client key used when the
    request itself names none (socket connections pass their peer id).
    This is the whole server minus the I/O loop — tests drive it
    directly, deterministically. *)

val handle_batch : t -> ?client:string -> string list -> string list
(** [handle_lines] with queue-depth admission applied across the batch:
    lines beyond [sv_max_queue] pending are rejected with
    ["overload:queue"] before any processing, exactly as the poll loop
    treats a burst of input. Responses come back in request order. *)

val handle_stream :
  t -> ?client:string -> ?jobs:int -> string list -> string list
(** Run a batch of request lines through the full concurrent executor —
    bounded work queue, [jobs] worker domains (default [sv_jobs]),
    watchdog supervision — without any transport, blocking submission
    when the queue is full instead of rejecting; returns one response
    per input line, in input order. Concurrency tests use this to
    exercise exactly the machinery behind {!serve_fds}/{!serve_socket}
    in process. A [shutdown] op inside the stream drains the executor:
    lines queued behind it come back [rejected:shutdown]. *)

val shutdown_requested : t -> bool

val save_snapshot : t -> (unit, string) result
(** Snapshot now (no-op [Ok] when no snapshot path is configured). *)

val stats_json : t -> Json.t
(** The same document a [{"op":"stats"}] request returns (admission and
    degradation counters, cache statistics, per-phase latencies,
    snapshot status, uptime). *)

val serve_fds : t -> Unix.file_descr -> Unix.file_descr -> unit
(** Serve until EOF, a [shutdown] request, or SIGTERM/SIGINT (handlers
    installed for the duration): read request lines from the first
    descriptor, write response lines to the second. Lines execute
    concurrently on [sv_jobs] workers; responses keep arrival order. On
    EOF the already-admitted backlog is executed and answered normally;
    on [shutdown]/SIGTERM it is answered [rejected:shutdown] and
    in-flight solves get [sv_drain_limit] seconds before cancellation.
    A final snapshot is written on every graceful exit path. *)

val serve_socket : t -> path:string -> unit
(** Bind a Unix-domain socket at [path], accept up to [sv_max_conns]
    concurrent connections (listen backlog [sv_backlog]) and serve each
    with the same per-line protocol; connection N's default client key
    is ["conn-N"]. If [path] already has a {e live} listener the call
    fails loudly ([Failure]) instead of stealing the socket — only a
    stale file from a dead process is replaced. Returns on [shutdown]
    or SIGTERM/SIGINT after the graceful drain (stop accepting, reject
    the queued backlog, give in-flight solves [sv_drain_limit] seconds,
    flush every connection), removing the socket file and writing a
    final snapshot. *)

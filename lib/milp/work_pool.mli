(** Bounded work-queue domain pool — the generic executor behind the
    server's concurrent request path, the batch scheduler and the
    decomposition subsystem's parallel cluster solves. A fixed set of worker domains consumes a
    FIFO queue with a hard capacity; the non-blocking {!submit}
    returning [false] is the caller's admission signal (answer
    "overload", don't queue unboundedly). Workers survive anything
    [work] raises, so a poisoned item cannot shrink the pool. *)

type 'a t

val create : jobs:int -> capacity:int -> work:('a -> unit) -> 'a t
(** Spawn [jobs] worker domains consuming the queue. [work] runs on a
    worker domain; its exceptions are swallowed — produce definitive
    failure results inside [work] itself. *)

val submit : ?block:bool -> 'a t -> 'a -> bool
(** Enqueue one item. With [block = false] (default) a full queue
    refuses immediately; with [block = true] the submitter waits for
    room. [false] after {!shutdown} or (non-blocking) when full. *)

val depth : 'a t -> int
(** Items queued, not yet picked up. *)

val active : 'a t -> int
(** Items currently being worked. *)

val idle : 'a t -> bool
(** No queued and no active items. *)

val high_water : 'a t -> int
(** Deepest the queue has ever been. *)

val take_queued : 'a t -> 'a list
(** Atomically remove and return everything still queued (in FIFO
    order) — the graceful-drain path answers these [rejected:shutdown]
    instead of executing them. In-flight items are unaffected. *)

val shutdown : 'a t -> unit
(** Stop accepting; workers finish whatever is queued and exit. Call
    {!take_queued} first to reject instead of executing the backlog. *)

val join : 'a t -> unit
(** Wait for every worker domain to exit (after {!shutdown}). *)

val run_all : jobs:int -> work:('a -> unit) -> 'a list -> unit
(** One fork-join batch: a fresh pool of [jobs] workers runs [work] on
    every item, and the call returns once all of them are done — its
    effects are visible to the caller. As with {!create}, exceptions
    escaping [work] are swallowed. *)

(** Mutable binary min-heap keyed by floats. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> float -> 'a -> unit
val min_key : 'a t -> float option
(** Smallest key currently stored, without removing it. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the entry with the smallest key. *)

val raw : 'a t -> (float * 'a) array
(** The internal heap array in storage order (a valid heap layout, not
    sorted). With [of_raw] this round-trips the queue *byte-identically*:
    entries with equal keys pop in the same order as the original — which
    plain re-[push]ing cannot guarantee. Used by checkpoint snapshots. *)

val of_raw : (float * 'a) array -> 'a t
(** Rebuilds a queue from {!raw} output. The array must be a valid
    min-heap layout (anything returned by {!raw} is). *)

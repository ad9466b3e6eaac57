(** Growable arrays.

    OCaml 5.1 ships no [Dynarray]; this is the small subset the solver
    needs: amortized O(1) push, O(1) read/write, snapshot to array. *)

type 'a t

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty buffer. [dummy] fills unused slots and is
    never observable through the API. *)

val length : 'a t -> int

val push : 'a t -> 'a -> int
(** [push b x] appends [x] and returns its index. *)

val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

val to_array : 'a t -> 'a array
(** Fresh array of the live elements. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit

(** {2 Unboxed capacity} Scratch that reuses plain [int]/[float] arrays
    (a polymorphic buffer would box every float it returns) grows them
    through these. *)

val reserve_ints : int array -> used:int -> int -> int array
(** [reserve_ints a ~used n] is [a] when it has at least [n] elements;
    otherwise a new array of at least [max n (2 * length a)] elements
    starting with the first [used] elements of [a]. *)

val reserve_floats : float array -> used:int -> int -> float array
(** As {!reserve_ints}, for a flat float array. *)

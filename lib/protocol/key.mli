(** Exact, prefix-free binary encoding for visited-state keys.

    The model checker keys its visited set on a byte string built by
    each module that owns a piece of state ([Message.encode],
    [Transitions.encode], [Refine.encode], the checker's closed
    system), all writing into one shared [Buffer.t].  Ints are
    zigzag LEB128 varints and every list or map carries a length
    prefix, so the concatenation is prefix-free: equal keys <=> equal
    encoded values.  Text renderings ([Transitions.canon],
    [Message.describe]) stay for counterexamples and replay diffs. *)

val int : Buffer.t -> int -> unit
(** Any int, as a zigzag varint (small magnitudes take one byte). *)

val bool : Buffer.t -> bool -> unit

val list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
(** Length prefix, then the elements in order. *)

val option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit

(** Sparse simulated memory.

    A table of 8 KB pages of 32-bit longword patterns.  The longword is
    primitive because the Shasta flag technique (paper Section 3.2)
    stores the -253 flag value into every longword of an invalid line.

    Quadword integers are OCaml ints carrying the sign-extended 64-bit
    value (values outside [-2^62, 2^62) wrap; simulated programs keep
    integer data well inside).  Floating-point data takes the exact
    [Int64] path. *)

type t

val create : unit -> t
val page_bytes : int

val allocated_bytes : t -> int
(** Bytes of backing store materialized so far. *)

(** {1 Longwords} *)

val read_long_u : t -> int -> int
(** Raw 32-bit pattern in [0, 2^32).  The address must be 4-aligned. *)

val write_long_u : t -> int -> int -> unit

val read_long : t -> int -> int
(** Sign-extended longword, as the [ldl] instruction sees it. *)

val sext32 : int -> int

(** {1 Bytes} *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit

(** {1 Quadwords} *)

val read_quad : t -> int -> int
(** Sign-extended quadword (see module comment for range).  8-aligned. *)

val write_quad : t -> int -> int -> unit

val read_quad_unaligned : t -> int -> int
(** [ldq_u] semantics: the low three address bits are ignored. *)

val read_quad_bits : t -> int -> int64
(** Exact 64-bit pattern, used for floating-point data. *)

val write_quad_bits : t -> int -> int64 -> unit
val read_float : t -> int -> float
val write_float : t -> int -> float -> unit

val load_float : t -> int -> float array -> int -> unit
(** [load_float m addr fa i] sets [fa.(i)] to [read_float m addr]
    without boxing the value (the interpreter's FP register file). *)

val store_float : t -> int -> float array -> int -> unit
(** [store_float m addr fa i] is [write_float m addr fa.(i)], unboxed. *)

(** {1 Bulk operations} *)

val fill_bytes : t -> addr:int -> len:int -> int -> unit
(** [fill_bytes m ~addr ~len v] stores byte [v] at every address in
    [\[addr, addr+len)] — page-at-a-time where the range covers whole
    pages.  The memory image and the set of materialized pages equal
    those of a [write_byte] loop over the range. *)

val copy_pages : src:t -> dst:t -> addr:int -> len:int -> unit
(** Copy every materialized page of [src] overlapping the range into
    [dst]; used for process-creation-time copying of the static area. *)

val blit_out : t -> addr:int -> nlongs:int -> int array
val blit_in : t -> addr:int -> int array -> unit

(** Direct-mapped cache models.

    Table 2's dynamic overheads include the hardware cache misses the
    check code itself causes — state-table misses on store checks are
    the paper's motivation for the exclusive table (Section 3.3) — so
    check metadata accesses go through the same model as data. *)

type t = {
  cname : string;
  line_bytes : int;
  nsets : int;
  line_shift : int;  (** log2 [line_bytes] *)
  set_mask : int;  (** [nsets - 1] *)
  tags : int array;
  mutable hits : int;
  mutable misses : int;
}

val create : name:string -> size_bytes:int -> line_bytes:int -> t
(** Raises [Invalid_argument] unless [size_bytes] and [line_bytes] are
    powers of two with [size_bytes >= line_bytes]. *)

val reset : t -> unit

val access : t -> int -> bool
(** Probe and fill; [true] on hit. *)

val invalidate_range : t -> addr:int -> len:int -> unit
(** Drop any lines overlapping the range; used when protocol handlers
    rewrite memory behind the processor's back. *)

type hierarchy = {
  l1i : t;
  l1d : t;
  l2 : t;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
  mutable on_miss : t -> unit;
      (** observability tap, fired with the missing cache on every
          miss; no-op by default *)
}

val alpha_hierarchy : unit -> hierarchy
(** The evaluation platform's geometry: 16 KB I/D L1, 4 MB L2
    (paper Section 5.2). *)

val reset_hierarchy : hierarchy -> unit

val daccess : hierarchy -> int -> int
(** Extra cycles for a data access (0 on an L1 hit). *)

val iaccess : hierarchy -> int -> int
(** Extra cycles for an instruction fetch. *)

val dinvalidate : hierarchy -> addr:int -> len:int -> unit

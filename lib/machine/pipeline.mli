(** Static in-order issue timing model.

    Models the features the paper's overhead analysis depends on
    (Sections 3.1, 5.1): multiple issue with a single memory port, the
    21064A's shift-use delay (why Figure 4 beats Figure 2), load-use
    delay (why the flag compare is sunk below the load), long FP
    compare/branch latency (why FP loads are checked through an extra
    integer load), and static branch prediction. *)

type config = {
  cpu_name : string;
  issue_width : int;
  load_latency : int;
  shift_latency : int;
  int_latency : int;
  mul_latency : int;
  div_latency : int;
  fp_latency : int;
  fp_div_latency : int;
  fp_branch_cost : int;
  mispredict_cycles : int;
  call_cycles : int;
}

val alpha_21064a : config
(** The 275 MHz dual-issue 21064A of the paper's measurements. *)

val alpha_21164 : config
(** The quad-issue 21164 of the paper's second cycle-count column. *)

type branch_info =
  | B_none
  | B_taken_forward
  | B_taken_backward
  | B_not_taken_forward
  | B_not_taken_backward
(** How a branch issued: taken or not, and whether its target lies
    backward (static prediction: backward taken, forward not-taken). *)

type latency = L_int | L_load | L_shift | L_mul | L_div | L_fp | L_fp_div
(** Result-latency class, resolved against the [config] at issue. *)

type control = C_none | C_fp_branch | C_call
(** Extra control-flow cost class (FP branch resolution, call/return). *)

type decoded = {
  srcs : int array;  (** integer registers read, without r31 *)
  fsrcs : int array;  (** FP registers read, without f31 *)
  dst : int;  (** integer register written, or [no_reg] *)
  fdst : int;  (** FP register written, or [no_reg] *)
  mem : bool;  (** [Insn.is_mem] *)
  store : bool;  (** [Insn.is_store] *)
  latency : latency;
  control : control;
}
(** What {!issue} needs of one instruction, computed once per image
    from [Insn.uses]/[fuses]/[def]/[fdef]. *)

val no_reg : int
(** 31: register 31 reads as zero and is never written. *)

val decode : Shasta_isa.Insn.t -> decoded

val no_access : int
(** The [maddr] of an instruction that touches no data memory (-1; no
    real access is at an unaligned address). *)

type t

val create : ?caches:Cache.hierarchy -> config -> t
(** Without [caches], memory is ideal (used for static cost studies). *)

val cycle : t -> int
val insns : t -> int
val reset : t -> unit

val stall : t -> int -> unit
(** Advance time by stall cycles (handler entry, polls, waiting). *)

val advance_to : t -> int -> unit
(** Advance to an absolute cycle (message arrival); never goes back. *)

val issue :
  t -> decoded -> iaddr:int -> maddr:int -> branch:branch_info -> unit
(** Issue one decoded instruction: waits for source operands
    (scoreboard), respects issue width and the single memory port,
    charges I/D cache misses, records result latency, and applies
    branch costs.  [maddr] is the data address, or [no_access].
    Allocates nothing. *)

(** Host-side performance counters: monotonic wall time, per-phase
    breakdown (compile / setup / load / run / drain), and GC deltas over the
    measured region — the simulator measuring itself rather than the
    simulated machine. *)

type t

type report = {
  wall_s : float;  (** total wall seconds from [create] to [report] *)
  phases : (string * float) list;
      (** seconds charged per phase, in first-use order *)
  gc : Benchjson.gc;  (** GC delta over the measured region *)
}

val monotonic_clock : unit -> float
(** Monotonic seconds (bechamel's clock). *)

val create : ?clock:(unit -> float) -> unit -> t
(** Start a measurement.  [clock] (default {!monotonic_clock}) is
    injectable for deterministic tests. *)

val phase : t -> string -> (unit -> 'a) -> 'a
(** Time the closure and charge it to the named phase bucket;
    re-entering a name accumulates.  Exceptions propagate, the time
    still lands in the bucket. *)

val add_phase : t -> string -> float -> unit
(** Charge seconds to a bucket directly (for regions not expressible
    as a closure). *)

val report : t -> report

val cyc_per_s : report -> sim_cycles:int -> float
(** Simulated cycles per host second, charged against the "run" phase
    when one was measured, else total wall time. *)

val publish : Metrics.t -> report -> unit
(** Fold the report into the registry as node-0 counters
    ([perf.wall_us], [perf.<phase>_us], [perf.gc.*]). *)

val git_rev : unit -> string
(** Short git revision of the working tree; [SHASTA_GIT_REV] overrides;
    "unknown" when neither is available.  Memoized. *)

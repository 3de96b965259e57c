(* Host-side performance counters.

   Everything else in the registry measures the *simulated* machine;
   this module measures the simulator itself: monotonic wall time
   (bechamel's clock — immune to NTP steps), a per-phase breakdown
   (compile / setup / load / run / drain), and OCaml GC deltas over the
   measured region.  A [t] is an accumulator: [phase] times a closure
   and charges it to a named bucket, [report] closes the measurement
   and snapshots the GC.  The clock is injectable so tests can drive
   deterministic timings.

   Host numbers are machine-dependent by nature; they feed the
   tolerance-gated half of {!Benchjson.gate} and the
   simulated-cycles-per-host-second figure that the perf trajectory
   tracks across PRs. *)

type t = {
  clock : unit -> float;  (* monotonic seconds *)
  t0 : float;
  gc0 : Gc.stat;
  mutable phases : (string * float) list;  (* insertion order, reversed *)
}

type report = {
  wall_s : float;
  phases : (string * float) list;  (* seconds per phase, insertion order *)
  gc : Benchjson.gc;
}

let monotonic_clock () =
  Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create ?(clock = monotonic_clock) () =
  { clock; t0 = clock (); gc0 = Gc.quick_stat (); phases = [] }

let add_phase (t : t) name seconds =
  match List.assoc_opt name t.phases with
  | Some _ ->
    t.phases <-
      List.map (fun (n, v) -> if n = name then (n, v +. seconds) else (n, v))
        t.phases
  | None -> t.phases <- t.phases @ [ (name, seconds) ]

let phase t name f =
  let start = t.clock () in
  Fun.protect ~finally:(fun () -> add_phase t name (t.clock () -. start)) f

let report t =
  let gc1 = Gc.quick_stat () in
  { wall_s = t.clock () -. t.t0;
    phases = t.phases;
    gc =
      { Benchjson.minor_words = gc1.Gc.minor_words -. t.gc0.Gc.minor_words;
        major_words = gc1.Gc.major_words -. t.gc0.Gc.major_words;
        minor_collections =
          gc1.Gc.minor_collections - t.gc0.Gc.minor_collections;
        major_collections =
          gc1.Gc.major_collections - t.gc0.Gc.major_collections } }

(* Simulated cycles retired per host second.  Charged against the "run"
   phase when one was measured (compile/load time is not the
   simulator's fault), else against total wall time. *)
let cyc_per_s r ~sim_cycles =
  let denom =
    match List.assoc_opt "run" r.phases with
    | Some s when s > 0.0 -> s
    | _ -> r.wall_s
  in
  if denom <= 0.0 then 0.0 else float_of_int sim_cycles /. denom

(* Fold a report into the metrics registry (node 0 — host metrics have
   no per-node meaning) so `--metrics` dumps and CSV exports carry the
   host numbers next to the simulated ones.  Times in microseconds:
   the registry stores ints. *)
let us s = int_of_float (s *. 1e6)

let publish m r =
  Metrics.add m ~node:0 "perf.wall_us" (us r.wall_s);
  List.iter
    (fun (name, s) -> Metrics.add m ~node:0 ("perf." ^ name ^ "_us") (us s))
    r.phases;
  Metrics.add m ~node:0 "perf.gc.minor_words"
    (int_of_float r.gc.Benchjson.minor_words);
  Metrics.add m ~node:0 "perf.gc.major_words"
    (int_of_float r.gc.Benchjson.major_words);
  Metrics.add m ~node:0 "perf.gc.minor_collections"
    r.gc.Benchjson.minor_collections;
  Metrics.add m ~node:0 "perf.gc.major_collections"
    r.gc.Benchjson.major_collections

(* Current git revision for the [git_rev] record field.  Memoized; the
   SHASTA_GIT_REV environment variable overrides (CI sets it to the
   exact SHA under test), and a tree without git yields "unknown". *)
let git_rev_memo = ref None

let git_rev () =
  match !git_rev_memo with
  | Some r -> r
  | None ->
    let r =
      match Sys.getenv_opt "SHASTA_GIT_REV" with
      | Some r when r <> "" -> r
      | _ -> (
        try
          let ic =
            Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
          in
          let line = try input_line ic with End_of_file -> "" in
          match (Unix.close_process_in ic, line) with
          | Unix.WEXITED 0, l when l <> "" -> l
          | _ -> "unknown"
        with _ -> "unknown")
    in
    git_rev_memo := Some r;
    r

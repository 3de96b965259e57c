(* Convenience front end: MiniC source -> compile -> instrument -> run.

   This is the "Shasta compilation process" of Figure 1: the application
   executable (produced by the MiniC compiler standing in for the system
   C compiler) is rewritten with miss checks and linked against the
   runtime, then run on a simulated cluster. *)

open Shasta_minic

type spec = {
  prog : Ast.prog;
  opts : Shasta.Opts.t option; (* None = original, uninstrumented binary *)
  nprocs : int;
  pipe : Shasta_machine.Pipeline.config;
  net : Shasta_network.Network.profile;
  net_faults : Shasta_network.Network.faults option;
      (* None = the paper's reliable wire; Some f injects seeded
         drop/dup/reorder/delay under the reliable-delivery sublayer *)
  node_faults : Nodefaults.t option;
      (* None (or an event-free spec) = no crash injection; Some s
         halts/restarts nodes per the schedule with lease-based
         detection and directory reconstruction *)
  fixed_block : int option;
  granularity_threshold : int;
  consistency : State.consistency;
  obs : Shasta_obs.Obs.t option;
      (* observability subsystem to report into; [None] builds a fresh
         sinkless one (the metrics registry is still populated) *)
  progress : int option;
      (* Some n: heartbeat every n million simulated cycles (obs event
         + stderr line); None stays silent and byte-identical *)
  dir_mode : Shasta_protocol.Nodeset.mode;
      (* directory organization for the protocol's node sets; nprocs is
         validated against its capacity at prepare time *)
  home_policy : State.home_policy;
  placement : (int * int) list;
      (* explicit (page, home) overrides — the Profiled policy's input
         (see [run_profiled], which derives them from a pilot run) *)
  scalable_sync : bool; (* queue locks + combining-tree barrier *)
  migrate : bool; (* hot-page directory-home migration *)
}

let default_spec prog =
  { prog; opts = Some Shasta.Opts.full; nprocs = 1;
    pipe = Shasta_machine.Pipeline.alpha_21064a;
    net = Shasta_network.Network.memory_channel; net_faults = None;
    node_faults = None; fixed_block = None;
    granularity_threshold = 1024; consistency = State.Release; obs = None;
    progress = None; dir_mode = Shasta_protocol.Nodeset.Full;
    home_policy = State.Round_robin; placement = []; scalable_sync = false;
    migrate = false }

type result = {
  phase : Cluster.phase_result;
  inst_stats : Shasta.Instrument.stats option;
  program : Shasta_isa.Program.t; (* the executable actually run *)
  state : State.t; (* post-run cluster state (registry, network, protocol view) *)
}

(* MiniC compile + instrumentation: the executable to run. *)
let compile spec =
  let compiled = Compile.compile spec.prog in
  let program, inst_stats =
    match spec.opts with
    | Some opts ->
      let p, s = Shasta.Instrument.instrument ~opts compiled.program in
      (p, Some s)
    | None ->
      if spec.nprocs > 1 then
        invalid_arg
          "Api.prepare: uninstrumented executables only run on one node";
      (compiled.program, None)
  in
  ({ compiled with program }, inst_stats)

(* Cluster construction for a compiled executable. *)
let setup spec (compiled : Compile.compiled) =
  let line_shift =
    match spec.opts with Some o -> o.line_shift | None -> 6
  in
  let config =
    State.default_config ~nprocs:spec.nprocs ~line_shift
      ~consistency:spec.consistency ~pipe_config:spec.pipe
      ~net_profile:spec.net ?net_faults:spec.net_faults
      ?node_faults:spec.node_faults
      ~granularity_threshold:spec.granularity_threshold
      ?fixed_block:spec.fixed_block ?obs:spec.obs ?progress:spec.progress
      ~dir_mode:spec.dir_mode ~home_policy:spec.home_policy
      ~placement:spec.placement ~scalable_sync:spec.scalable_sync
      ~migrate:spec.migrate ()
  in
  Cluster.create ~config ~compiled ()

let prepare spec =
  let compiled, inst_stats = compile spec in
  (setup spec compiled, inst_stats, compiled.program)

let run ?(init_proc = "appinit") ?(work_proc = "work") spec =
  let state, inst_stats, program = prepare spec in
  let phase = Cluster.run_app ~init_proc ~work_proc state in
  { phase; inst_stats; program; state }

(* Profile-guided placement: turn a pilot run's per-block contention
   tables into (page, home) overrides.  Each contended block votes for
   its writer nodes (readers when nobody wrote), weighted by its
   invalidation traffic; a page whose dominant node differs from the
   round-robin default gets an override. *)
let placement_of_profile prof ~nprocs =
  let page_bytes = 8192 in
  let nbits = min nprocs Shasta_protocol.Nodeset.max_bits in
  let tally = Hashtbl.create 64 in
  List.iter
    (fun (block, (bs : Shasta_obs.Profile.block_stats)) ->
      let page = block / page_bytes in
      let mask = if bs.writers <> 0 then bs.writers else bs.readers in
      let weight = 1 + bs.invals + bs.pingpong in
      for n = 0 to nbits - 1 do
        if mask land (1 lsl n) <> 0 then begin
          let votes =
            match Hashtbl.find_opt tally page with
            | Some a -> a
            | None ->
              let a = Array.make nprocs 0 in
              Hashtbl.add tally page a;
              a
          in
          votes.(n) <- votes.(n) + weight
        end
      done)
    (Shasta_obs.Profile.contended_blocks prof);
  Hashtbl.fold
    (fun page votes acc ->
      let best = ref 0 in
      Array.iteri (fun n w -> if w > votes.(!best) then best := n) votes;
      if votes.(!best) = 0 || !best = page mod nprocs then acc
      else (page, !best) :: acc)
    tally []
  |> List.sort compare

(* The Profiled home policy's two-pass driver: a pilot run with a
   profiler attached to a private obs discovers contention under
   round-robin homes, then the real run executes with the derived
   placement installed.  Returns the real result plus the placement. *)
let run_profiled ?(init_proc = "appinit") ?(work_proc = "work") spec =
  let pobs = Shasta_obs.Obs.create ~nprocs:spec.nprocs () in
  let prof = Shasta_obs.Profile.create ~nprocs:spec.nprocs () in
  Shasta_obs.Obs.attach_profiler pobs prof;
  let pilot =
    { spec with obs = Some pobs; home_policy = State.Round_robin;
      placement = []; migrate = false; progress = None }
  in
  ignore (run ~init_proc ~work_proc pilot);
  let placement = placement_of_profile prof ~nprocs:spec.nprocs in
  let real = { spec with home_policy = State.Profiled; placement } in
  (run ~init_proc ~work_proc real, placement)

(* [run] under host-side measurement: the whole pipeline inside one
   {!Shasta_obs.Perf} accumulator — "compile" covers MiniC compilation
   and instrumentation, "setup" cluster construction, and "load"/"run"/
   "drain" are charged by [Cluster.run_app].  The report is folded into
   the result state's metrics registry (node-0 [perf.*] counters) and
   returned for BENCH emission. *)
let run_measured ?(init_proc = "appinit") ?(work_proc = "work") ?clock spec =
  let perf = Shasta_obs.Perf.create ?clock () in
  let compiled, inst_stats =
    Shasta_obs.Perf.phase perf "compile" (fun () -> compile spec)
  in
  let state =
    Shasta_obs.Perf.phase perf "setup" (fun () -> setup spec compiled)
  in
  let program = compiled.program in
  let phase = Cluster.run_app ~init_proc ~work_proc ~perf state in
  let report = Shasta_obs.Perf.report perf in
  Shasta_obs.Perf.publish (Shasta_obs.Obs.metrics (State.obs state)) report;
  ({ phase; inst_stats; program; state }, report)

(* Total inline-check misses of the timed phase — the [misses] field of
   a BENCH record. *)
let phase_misses (ph : Cluster.phase_result) =
  Array.fold_left
    (fun a (c : Node.counters) ->
      a + c.read_misses + c.write_misses + c.upgrade_misses)
    0 ph.counters

(* One BENCH record for a completed run.  Simulated fields come from
   the phase result; host fields from [perf] (omit it — or pass a
   zeroed report — for machine-independent baselines). *)
let bench_record ~workload ?(opts_name = "full") ?perf ?(extra = []) spec
    (r : result) =
  let line =
    match spec.fixed_block with
    | Some b -> b
    | None -> (
      match spec.opts with Some o -> 1 lsl o.Shasta.Opts.line_shift | None -> 64)
  in
  let wall_s, cyc_per_s, gc =
    match perf with
    | None -> (0.0, 0.0, Shasta_obs.Benchjson.no_gc)
    | Some (p : Shasta_obs.Perf.report) ->
      ( p.wall_s,
        Shasta_obs.Perf.cyc_per_s p ~sim_cycles:r.phase.wall_cycles,
        p.gc )
  in
  Shasta_obs.Benchjson.make ~workload ~nprocs:spec.nprocs ~line
    ~opts:opts_name ~sim_cycles:r.phase.wall_cycles
    ~messages:r.phase.msgs_sent ~misses:(phase_misses r.phase) ~wall_s
    ~cyc_per_s ~gc ~git_rev:(Shasta_obs.Perf.git_rev ()) ~extra ()

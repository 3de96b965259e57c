(* The repository benchmark: one named workload, repeated for a time
   budget, with every output checked.

     bench.exe --workload lu-p64 --seed 0 --seconds 20 --trace 0

   Normally started through perfbench/run.py, which builds it first.
   BENCHMARK.json lists the workloads and why each was chosen;
   perfbench/METRICS.md maps every per-layer metric to the end-to-end
   metric and workload it should move.

   The libraries are driven from outside: only calls into public entry
   points are timed (Compile.compile, Instrument.instrument,
   Cluster.create, Cluster.run_app and its ?perf load/run split, the
   workload generators, Transitions.step, Mcheck.check_exhaustive), and
   counts come from public state (Node counters, the Obs registry delta
   of the timed phase, Network fault counters, Instrument.stats, the KV
   report, Mcheck results) plus Gc.quick_stat deltas.  Splitting the
   scheduler from Exec and Engine inside Cluster.run_app needs tracing
   inside the program; until then lu-p64 (scheduler-heavy) against
   interp-p1 (one node, no messages) separates them.

   --trace 0: every repetition is untraced; the last stdout line is a
   JSON object with the end-to-end metrics, medians over repetitions.
   --trace 1: untraced and traced repetitions alternate.  A traced
   repetition records a span around every timed call, records the
   protocol inputs and afterwards folds Transitions.step alone over
   them (protocol.step_ns); the per-layer metrics come from the traced
   repetitions and trace.overhead_s compares them with the untraced
   ones.  Spans stay in memory until the end, when --spans-out writes
   them as JSON. *)

open Shasta_runtime
module Compile = Shasta_minic.Compile
module Instrument = Shasta.Instrument
module Apps = Shasta_apps.Apps
module Sht = Shasta_apps.Sht
module W = Shasta_workload.Workload
module Report = Shasta_workload.Report
module Network = Shasta_network.Network
module Nodeset = Shasta_protocol.Nodeset
module T = Shasta_protocol.Transitions
module Metrics = Shasta_obs.Metrics
module Obs = Shasta_obs.Obs
module Perf = Shasta_obs.Perf
module Mcheck = Shasta_mcheck.Mcheck

let now = Perf.monotonic_clock

(* ---- metric names ---- *)

(* The JSON line under --trace 0: BENCHMARK.json's end_to_end list.
   Only metrics that every workload has and that are never zero belong
   here; the rest of the end-to-end set (raw wall_s, simulated results,
   minsns_per_s, fail_frac) is printed in the report, and all but
   wall_s are carried in [per_layer]. *)
let end_to_end = [ ("wall_rel", "probes"); ("setup_s", "s"); ("peak_mem_mb", "MB") ]

(* (name, unit, exact): the JSON line under --trace 1, in
   BENCHMARK.json's per_layer order.  [exact] metrics are simulated
   results that must repeat bit-for-bit across repetitions and between
   traced and untraced runs.  A metric a workload does not exercise
   reads 0. *)
let per_layer =
  [ (* simulated end-to-end results and the host throughput *)
    ("sim_cycles", "cycles", true); ("messages", "count", true);
    ("kv_ops_per_mcycle", "ops/Mcycle", true); ("kv_p50_cycles", "cycles", true);
    ("kv_p999_cycles", "cycles", true); ("minsns_per_s", "Minsn/s", false);
    ("fail_frac", "ratio", false); ("host.probe_s", "s", false);
    (* workload generation, MiniC compiler, instrumenter *)
    ("workload.gen_s", "s", false); ("minic.compile_s", "s", false);
    ("core.instrument_s", "s", false); ("core.insns_before", "count", true);
    ("core.code_growth", "ratio", true); ("core.checked_accesses", "count", true);
    (* cluster construction and the two halves of Cluster.run_app *)
    ("cluster.nodes", "count", true); ("cluster.create_s", "s", false);
    ("cluster.create_ms_per_node", "ms/node", false); ("cluster.load_s", "s", false);
    ("cluster.run_s", "s", false); ("cluster.run_ns_per_msg", "ns/msg", false);
    (* interpreter and machine model *)
    ("exec.insns", "count", true); ("exec.init_insns", "count", true);
    ("exec.run_ns_per_insn", "ns/insn", false);
    ("exec.dyn_loads_shared", "count", true); ("exec.dyn_stores_shared", "count", true);
    ("exec.polls", "count", true); ("machine.stall_cycles", "cycles", true);
    ("machine.l1d_misses", "count", true);
    (* protocol engine and pure core *)
    ("engine.read_misses", "count", true); ("engine.write_misses", "count", true);
    ("engine.upgrade_misses", "count", true); ("engine.false_misses", "count", true);
    ("engine.batch_misses", "count", true); ("engine.store_reissues", "count", true);
    ("engine.msgs_handled", "count", true); ("protocol.lock_acquires", "count", true);
    ("protocol.barriers", "count", true); ("protocol.steps", "count", false);
    ("protocol.step_ns", "ns/step", false);
    (* network and its reliable-delivery sublayer *)
    ("net.payload_longs", "longwords", true); ("net.msgs_per_miss", "msgs/miss", true);
    ("net.retx", "count", true); ("net.drop", "count", true); ("net.dup", "count", true);
    ("net.reorder", "count", true); ("net.backoff_cycles", "cycles", true);
    (* KV service *)
    ("kv.run_ops", "count", true); ("kv.handoffs", "count", true);
    ("kv.p95_cycles", "cycles", true);
    (* OCaml runtime *)
    ("gc.minor_words", "words", false); ("gc.run_app_minor_words", "words", false);
    ("gc.minor_words_per_insn", "words/insn", false); ("gc.promoted_words", "words", false);
    ("gc.minor_collections", "count", false); ("gc.major_collections", "count", false);
    ("gc.top_heap_mb", "MB", false);
    (* model checker *)
    ("mcheck.states", "count", true); ("mcheck.transitions", "count", true);
    ("mcheck.max_depth", "count", true); ("mcheck.largest_states", "count", true);
    ("mcheck.check_s", "s", false); ("mcheck.states_per_s", "states/s", false);
    ("mcheck.minor_words", "words", false);
    ("mcheck.minor_words_per_state", "words/state", false);
    ("mcheck.heap_words_per_state", "words/state", false);
    ("mcheck.read-sharing_s", "s", false); ("mcheck.write-race_s", "s", false);
    ("mcheck.lock-increment_s", "s", false); ("mcheck.flag-handoff_s", "s", false);
    ("mcheck.barrier-exchange_s", "s", false); ("mcheck.upgrade-race_s", "s", false);
    ("trace.overhead_s", "s", false) ]

let mcheck_scenario_names =
  [ "read-sharing"; "write-race"; "lock-increment"; "flag-handoff";
    "barrier-exchange"; "upgrade-race" ]

let exact_names =
  List.filter_map (fun (n, _, exact) -> if exact then Some n else None) per_layer

(* ---- one repetition's measurements, spans and failures ---- *)

type span = {
  id : int;
  parent : int; (* -1 for a root *)
  name : string;
  run : string;
  start : float;
  stop : float;
}

let tracing = ref false
let run_id = ref ""
let spans : span list ref = ref []
let open_spans = ref []
let next_id = ref 0

(* Values add up, so a workload that runs two programs reports sums. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 128

let add name v =
  Hashtbl.replace acc name
    (v +. Option.value (Hashtbl.find_opt acc name) ~default:0.0)

let addi name v = add name (float_of_int v)
let get name = Option.value (Hashtbl.find_opt acc name) ~default:0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

let attempt n = attempted := !attempted + n

let fail n msg =
  failed := !failed + n;
  failures := msg :: !failures

(* [span name f] runs one call into the program and adds its host
   seconds to [name ^ "_s"]; on a traced repetition it also records a
   span under the innermost open one.  Returns the span's id (-1 when
   untraced), start and stop. *)
let span name f =
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  let id = if !tracing then (incr next_id; !next_id) else -1 in
  if !tracing then open_spans := id :: !open_spans;
  let start = now () in
  let r = f () in
  let stop = now () in
  add (name ^ "_s") (stop -. start);
  if !tracing then begin
    open_spans := List.tl !open_spans;
    spans := { id; parent; name; run = !run_id; start; stop } :: !spans
  end;
  (r, id, start, stop)

let timed name f =
  let r, _, _, _ = span name f in
  r

(* ---- simulator workloads ---- *)

(* Trusted outputs: each application run uninstrumented on one
   processor (shasta_run --app NAME --size SIZE -p 1 --no-instrument).
   The instrumented parallel runs must print exactly the same. *)
let expected_output =
  [ ("lu", "2335.72\n"); ("ocean", "665.809\n"); ("raytrace", "226.691\n") ]

(* One program from generated MiniC source to the end of
   Cluster.run_app, with the default (paper) configuration apart from
   the processor count, directory mode and network faults. *)
let simulate ~nprocs ?(dir_mode = Nodeset.Full) ?net_faults gen =
  let state, ist =
    timed "setup" (fun () ->
      let prog = timed "workload.gen" gen in
      let compiled = timed "minic.compile" (fun () -> Compile.compile prog) in
      let program, ist =
        timed "core.instrument" (fun () ->
          Instrument.instrument ~opts:Shasta.Opts.full compiled.program)
      in
      let config = State.default_config ~nprocs ~dir_mode ?net_faults () in
      let state =
        timed "cluster.create" (fun () ->
          Cluster.create ~config ~compiled:{ compiled with program } ())
      in
      (state, ist))
  in
  state.State.record_inputs <- !tracing;
  let perf = Perf.create () in
  let phase, id, start, stop =
    span "cluster.run_app" (fun () -> Cluster.run_app ~perf state)
  in
  let pr = Perf.report perf in
  let phase_s name = Option.value (List.assoc_opt name pr.phases) ~default:0.0 in
  let load = phase_s "load" and run = phase_s "run" and drain = phase_s "drain" in
  add "cluster.load_s" load;
  add "cluster.run_s" run;
  add "gc.run_app_minor_words" pr.gc.minor_words;
  if !tracing then begin
    (* run_app charges load, run and drain back to back: load starts
       with the call, drain ends with it *)
    let child name a b =
      incr next_id;
      spans := { id = !next_id; parent = id; name; run = !run_id; start = a; stop = b }
               :: !spans
    in
    child "cluster.load" start (start +. load);
    child "cluster.run" (stop -. drain -. run) (stop -. drain)
  end;
  let sum f = Array.fold_left (fun a (c : Node.counters) -> a + f c) 0 phase.counters in
  let insns = sum (fun c -> c.insns) in
  let all_insns =
    Array.fold_left (fun a (n : Node.t) -> a + n.counters.insns) 0 state.nodes
  in
  addi "sim_cycles" phase.wall_cycles;
  addi "messages" phase.msgs_sent;
  addi "cluster.nodes" nprocs;
  addi "core.insns_before" ist.insns_before;
  addi "core.insns_after" ist.insns_after;
  addi "core.checked_accesses" (ist.loads_instrumented + ist.stores_instrumented);
  addi "exec.insns" insns;
  addi "exec.init_insns" (all_insns - insns);
  addi "exec.dyn_loads_shared" (sum (fun c -> c.dyn_loads_shared));
  addi "exec.dyn_stores_shared" (sum (fun c -> c.dyn_stores_shared));
  addi "exec.polls" (sum (fun c -> c.polls));
  addi "machine.stall_cycles" (sum (fun c -> c.stall_cycles));
  (* cache counters are cumulative: init phase plus timed phase *)
  addi "machine.l1d_misses"
    (Array.fold_left (fun a (n : Node.t) -> a + n.caches.l1d.misses) 0 state.nodes);
  addi "engine.read_misses" (sum (fun c -> c.read_misses));
  addi "engine.write_misses" (sum (fun c -> c.write_misses));
  addi "engine.upgrade_misses" (sum (fun c -> c.upgrade_misses));
  addi "engine.false_misses" (sum (fun c -> c.false_misses));
  addi "engine.batch_misses" (sum (fun c -> c.batch_misses));
  addi "engine.store_reissues" (sum (fun c -> c.store_reissues));
  addi "engine.msgs_handled" (sum (fun c -> c.msgs_handled));
  addi "protocol.lock_acquires" (sum (fun c -> c.lock_acquires));
  addi "protocol.barriers" (sum (fun c -> c.barriers_passed));
  addi "net.payload_longs" phase.payload_longs;
  let reg name = addi name (Metrics.counter_total phase.metrics name) in
  List.iter reg
    [ Obs.c_net_retx; Obs.c_net_drop; Obs.c_net_dup; Obs.c_net_reorder;
      Obs.c_net_backoff ];
  if !tracing then begin
    (* the pure core alone, without Replay's per-step invariant checks *)
    let inputs = List.rev state.inputs_rev in
    let cfg = state.tcfg in
    let v =
      timed "protocol.fold" (fun () ->
        List.fold_left
          (fun v (node, input) -> snd (T.step cfg v ~node input))
          (T.init cfg) inputs)
    in
    addi "protocol.steps" (List.length inputs);
    attempt 1;
    if not (String.equal (T.canon v) (T.canon state.proto)) then
      fail 1 "folding Transitions.step over the recorded inputs missed the live view"
  end;
  phase

let app name size () = (Apps.find name).make size

let check_output name (phase : Cluster.phase_result) =
  attempt 1;
  let want = List.assoc name expected_output in
  if not (String.equal phase.output want) then
    fail 1 (Printf.sprintf "%s printed %S, expected %S" name phase.output want)

let lu_p64 ~seed:_ =
  let dir_mode = Result.get_ok (Nodeset.mode_of_string "coarse") in
  check_output "lu" (simulate ~nprocs:64 ~dir_mode (app "lu" Apps.Small))

let interp_p1 ~seed:_ =
  List.iter
    (fun name -> check_output name (simulate ~nprocs:1 (app name Apps.Large)))
    [ "ocean"; "raytrace" ]

(* The seed picks the key stream and the fault stream; seed 0 gives
   shasta_run's defaults (--kv-seed 42, fault seed 1). *)
let kv_p8_lossy ~seed =
  let nprocs = 8 and nkeys = 1024 in
  let wl =
    W.spec ~nkeys ~ops:20_000 ~quanta:1024 ~mix:W.A ~dist:(W.Zipfian 0.99)
      ~seed:(42 + seed) ()
  in
  let plan = ref [||] in
  let phase =
    simulate ~nprocs ~net_faults:{ Network.standard with fseed = 1 + seed }
      (fun () ->
        plan := W.plan wl ~nprocs;
        Sht.program ~cfg:(Sht.default_cfg ~nkeys) ~wl ())
  in
  let r = Report.parse phase.output in
  attempt r.ops;
  if r.errors + r.verify_errors > 0 then
    fail (r.errors + r.verify_errors)
      (Printf.sprintf "kv: %d errors during the run, %d in the final sweep"
         r.errors r.verify_errors);
  let gets, puts, dels, scans = W.plan_counts !plan in
  let check what ok =
    attempt 1;
    if not ok then fail 1 ("kv: " ^ what)
  in
  check "operation mix differs from the host-side plan"
    ((r.gets, r.puts, r.dels, r.scans) = (gets, puts, dels, scans));
  check "run ops differ from the plan" (r.ops = gets + puts + dels + scans);
  check "table population is not every loaded key"
    (r.population = nkeys && r.overflows = 0 && r.lost = 0);
  add "kv_ops_per_mcycle" (Report.ops_per_mcycle r);
  addi "kv_p50_cycles" (Report.percentile r 50.0);
  addi "kv.p95_cycles" (Report.percentile r 95.0);
  addi "kv_p999_cycles" (Report.percentile r 99.9);
  addi "kv.run_ops" r.ops;
  addi "kv.handoffs" r.migrations

(* ---- model-checker workload ---- *)

let mcheck_lossy ~seed:_ =
  (* Building the scenarios takes microseconds, so set-up is the median
     of many timed batches of builds. *)
  let scenarios = ref [] in
  let batch = 20 in
  let samples =
    List.init 51 (fun _ ->
      let t = now () in
      for _ = 1 to batch do
        scenarios := Mcheck.scenarios ~nprocs:2
      done;
      (now () -. t) /. float_of_int batch)
  in
  add "setup_s" (median samples);
  let scenarios = !scenarios in
  if List.map (fun (s : Mcheck.scenario) -> s.sname) scenarios <> mcheck_scenario_names
  then failwith "Mcheck.scenarios changed: update mcheck_scenario_names";
  let g0 = Gc.quick_stat () in
  List.iter
    (fun (sc : Mcheck.scenario) ->
      let r, _, start, stop =
        span ("mcheck." ^ sc.sname) (fun () -> Mcheck.check_exhaustive ~lossy:3 sc)
      in
      add "mcheck.check_s" (stop -. start);
      addi "mcheck.states" r.states;
      addi "mcheck.transitions" r.transitions;
      Hashtbl.replace acc "mcheck.max_depth"
        (Float.max (get "mcheck.max_depth") (float_of_int r.max_depth));
      Hashtbl.replace acc "mcheck.largest_states"
        (Float.max (get "mcheck.largest_states") (float_of_int r.states));
      attempt 1;
      if r.truncated then fail 1 (sc.sname ^ ": hit the state bound");
      match r.violation with
      | Some v -> fail 1 (sc.sname ^ ": " ^ String.concat "; " v.verr)
      | None -> ())
    scenarios;
  add "mcheck.minor_words" ((Gc.quick_stat ()).minor_words -. g0.minor_words)

let workloads =
  [ ("lu-p64", lu_p64); ("interp-p1", interp_p1); ("kv-p8-lossy", kv_p8_lossy);
    ("mcheck-lossy", mcheck_lossy) ]

(* ---- host-speed probe ----

   The host's speed drifts by about 20% over minutes (other tenants share
   its cores), which would swamp any regression worth catching.  So a
   fixed loop, part of the benchmark and not of the program, is timed
   before the first repetition and after each one; [wall_rel] is a
   repetition's wall time over the mean of the probes on either side.
   Drift slower than a repetition cancels. *)
let probe () =
  let n = 1 lsl 18 in
  let mem = Array.make n 0 in
  let tbl = Hashtbl.create 4096 in
  let sum = ref 0 in
  for i = 1 to 3_000_000 do
    let k = i * 2654435761 land (n - 1) in
    mem.(k) <- mem.(k) + i;
    (match Hashtbl.find_opt tbl (k land 8191) with
     | Some (a, _) -> sum := !sum + a
     | None -> Hashtbl.replace tbl (k land 8191) (i, k));
    if i land 3 = 0 then sum := !sum + List.length [ i; k; !sum ]
  done;
  ignore (Sys.opaque_identity (mem, tbl, !sum))

let probe_s () =
  Gc.compact ();
  let t = now () in
  probe ();
  now () -. t

(* ---- repetitions ---- *)

type rep = { values : (string * float) list; traced : bool }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let repetition ~label ~traced work =
  Hashtbl.reset acc;
  Gc.compact ();
  tracing := traced;
  run_id := label;
  let g0 = Gc.quick_stat () in
  timed "repetition" work;
  let g1 = Gc.quick_stat () in
  tracing := false;
  add "gc.minor_words" (g1.minor_words -. g0.minor_words);
  add "gc.promoted_words" (g1.promoted_words -. g0.promoted_words);
  addi "gc.minor_collections" (g1.minor_collections - g0.minor_collections);
  addi "gc.major_collections" (g1.major_collections - g0.major_collections);
  add "gc.top_heap_mb" (top_heap_mb ());
  (* the program's own work: set-up plus the run or the checks *)
  add "wall_s" (get "setup_s" +. get "cluster.run_app_s" +. get "mcheck.check_s");
  add "minsns_per_s" (ratio (get "exec.insns") (get "cluster.run_s") /. 1e6);
  add "core.code_growth" (ratio (get "core.insns_after") (get "core.insns_before"));
  add "cluster.create_ms_per_node"
    (ratio (get "cluster.create_s" *. 1e3) (get "cluster.nodes"));
  add "cluster.run_ns_per_msg" (ratio (get "cluster.run_s" *. 1e9) (get "messages"));
  add "exec.run_ns_per_insn" (ratio (get "cluster.run_s" *. 1e9) (get "exec.insns"));
  add "gc.minor_words_per_insn"
    (ratio (get "gc.run_app_minor_words") (get "exec.insns" +. get "exec.init_insns"));
  add "net.msgs_per_miss"
    (ratio (get "messages")
       (get "engine.read_misses" +. get "engine.write_misses"
        +. get "engine.upgrade_misses"));
  add "protocol.step_ns" (ratio (get "protocol.fold_s" *. 1e9) (get "protocol.steps"));
  add "mcheck.states_per_s" (ratio (get "mcheck.states") (get "mcheck.check_s"));
  add "mcheck.minor_words_per_state"
    (ratio (get "mcheck.minor_words") (get "mcheck.states"));
  (* the largest scenario's visited set sets the heap peak *)
  add "mcheck.heap_words_per_state"
    (ratio
       (float_of_int (Gc.quick_stat ()).top_heap_words)
       (get "mcheck.largest_states"));
  { values = Hashtbl.fold (fun k v l -> (k, v) :: l) acc []; traced }

let value rep name = Option.value (List.assoc_opt name rep.values) ~default:0.0

(* Quartiles by linear interpolation between order statistics. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
    let rec scan () =
      match In_channel.input_line ic with
      | None -> failwith "no VmHWM line in /proc/self/status"
      | Some l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | Some _ -> scan ()
    in
    scan ())

(* ---- output ---- *)

let json_num v = Printf.sprintf "%.17g" v

let json_line ~correct metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct !attempted !failed (String.concat ", " m)

(* Self time: a span's duration minus the time its children cover. *)
let print_self_times () =
  let tbl = Hashtbl.create 32 in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.replace children s.parent
        (s.stop -. s.start +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    !spans;
  List.iter
    (fun s ->
      let total = s.stop -. s.start in
      let self = total -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0 in
      let n, t, f = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace tbl s.name (n + 1, t +. total, f +. self))
    !spans;
  print_endline "spans (traced repetitions):        count      total_s       self_s";
  Hashtbl.fold (fun k v l -> (k, v) :: l) tbl []
  |> List.sort compare
  |> List.iter (fun (name, (n, t, f)) ->
       Printf.printf "  %-30s %7d %12.6f %12.6f\n" name n t f)

let write_spans file ~workload ~seed =
  Out_channel.with_open_text file (fun oc ->
    Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"spans\": [" workload seed;
    List.rev !spans
    |> List.iteri (fun i s ->
         Printf.fprintf oc
           "%s\n{\"id\": %d, \"parent\": %d, \"name\": %S, \"run\": %S, \
            \"start_s\": %s, \"end_s\": %s}"
           (if i = 0 then "" else ",") s.id s.parent s.name s.run
           (json_num s.start) (json_num s.stop));
    output_string oc "\n]}\n")

(* The end-to-end set printed for people, per workload kind. *)
let report_metrics workload =
  let sim = [ ("minsns_per_s", "Minsn/s"); ("sim_cycles", "cycles"); ("messages", "count") ] in
  let kv =
    [ ("kv_ops_per_mcycle", "ops/Mcycle"); ("kv_p50_cycles", "cycles");
      ("kv_p999_cycles", "cycles") ]
  in
  (("wall_s", "s") :: end_to_end)
  @ (match workload with
     | "mcheck-lossy" -> [ ("mcheck.states", "count"); ("mcheck.transitions", "count") ]
     | "kv-p8-lossy" -> sim @ kv
     | _ -> sim)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 20.0 in
  let trace = ref 0 and spans_out = ref "" in
  let usage =
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--spans-out FILE]"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N workload seed (default 0)");
      ("--seconds", Arg.Set_float seconds, "S time budget (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--spans-out", Arg.Set_string spans_out, "FILE where --trace 1 writes spans") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let work =
    match List.assoc_opt !workload workloads with
    | Some w -> fun () -> w ~seed:!seed
    | None ->
      prerr_endline ("bench: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  let traced_run = !trace = 1 in
  Printf.printf "== %s, seed %d, %g s budget, %s\n%!" !workload !seed !seconds
    (if traced_run then "traced" else "untraced");
  (* Repeat until the next repetition would overrun the budget; at
     least two, so that repeatability is always checked. *)
  let t0 = now () in
  let reps = ref [] in
  let rounds = ref 0 in
  let last_probe = ref (probe_s ()) in
  (* peak memory of one run of the workload, as a single shasta_run
     would see it: later repetitions reuse a heap that has grown *)
  let peak = ref 0.0 in
  let continue () =
    let elapsed = now () -. t0 in
    !rounds < 2 || elapsed +. (elapsed /. float_of_int !rounds) <= !seconds
  in
  while continue () do
    incr rounds;
    let run traced =
      let label =
        Printf.sprintf "%s/seed%d/%d%s" !workload !seed !rounds
          (if traced then "/traced" else "")
      in
      let r = repetition ~label ~traced work in
      if !peak = 0.0 then peak := peak_rss_mb ();
      let before = !last_probe in
      last_probe := probe_s ();
      let probe = (before +. !last_probe) /. 2.0 in
      let r =
        { r with
          values =
            ("wall_rel", value r "wall_s" /. probe) :: ("host.probe_s", probe)
            :: r.values }
      in
      Printf.printf "rep %-3d %-8s wall_s %.4f  setup_s %.4f  probe_s %.4f\n%!"
        !rounds
        (if traced then "traced" else "untraced")
        (value r "wall_s") (value r "setup_s") probe;
      reps := r :: !reps
    in
    run false;
    if traced_run then run true
  done;
  let reps = List.rev !reps in
  let untraced = List.filter (fun r -> not r.traced) reps in
  let traced = List.filter (fun r -> r.traced) reps in
  (* simulated results repeat exactly, traced or not *)
  let first = List.hd reps in
  List.iteri
    (fun i r ->
      if i > 0 then begin
        attempt 1;
        let differs =
          List.filter (fun n -> value r n <> value first n) exact_names
        in
        if differs <> [] then
          fail 1
            (Printf.sprintf "repetition %d differs from the first in %s" (i + 1)
               (String.concat ", " differs))
      end)
    reps;
  let med rs name = median (List.map (fun r -> value r name) rs) in
  let fail_frac = ratio (float_of_int !failed) (float_of_int !attempted) in
  let summary rs name =
    match name with
    | "peak_mem_mb" -> (!peak, !peak, !peak)
    | _ ->
      let xs = List.map (fun r -> value r name) rs in
      (median xs, quantile xs 0.25, quantile xs 0.75)
  in
  Printf.printf "end-to-end over %d untraced repetition(s): median [q1, q3]\n"
    (List.length untraced);
  List.iter
    (fun (name, unit) ->
      let m, q1, q3 = summary untraced name in
      Printf.printf "e2e %-20s %16.10g %-10s [%.10g, %.10g]\n" name m unit q1 q3)
    (report_metrics !workload);
  Printf.printf "e2e %-20s %16.10g %-10s\n" "fail_frac" fail_frac "ratio";
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev !failures);
  let correct = !failed = 0 in
  let metrics =
    if traced_run then begin
      print_self_times ();
      if !spans_out <> "" then write_spans !spans_out ~workload:!workload ~seed:!seed;
      List.map
        (fun (name, unit, _) ->
          let v =
            match name with
            | "fail_frac" -> fail_frac
            | "trace.overhead_s" ->
              (* drift-corrected: probe-relative difference, in seconds *)
              (med traced "wall_rel" -. med untraced "wall_rel")
              *. med reps "host.probe_s"
            | _ -> med traced name
          in
          Printf.printf "layer %-32s %18.10g %s\n" name v unit;
          (name, unit, v))
        per_layer
    end
    else
      List.map
        (fun (name, unit) ->
          let m, _, _ = summary untraced name in
          (name, unit, m))
        end_to_end
  in
  print_endline (json_line ~correct metrics);
  exit (if correct then 0 else 1)

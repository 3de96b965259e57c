(* Model-checker tests: exhaustive runs of the built-in scenarios must
   find no violation; QCheck-generated random scripts driven through
   random interleavings must keep owner/sharer consistency and
   invalidation-ack conservation at every reachable state; the injected
   dropped-ack bug must be caught with a counterexample; and replaying
   a real workload's recorded inputs through the pure core must
   reproduce its exact final protocol state. *)

open QCheck2
module T = Shasta_protocol.Transitions
module Mcheck = Shasta_mcheck.Mcheck

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (Test.make ~name ~count gen prop)

(* --- exhaustive scenarios ------------------------------------------- *)

let t_exhaustive_clean () =
  List.iter
    (fun nprocs ->
      List.iter
        (fun sc ->
          let r = Mcheck.check_exhaustive sc in
          Alcotest.(check bool)
            (Printf.sprintf "%s P=%d explored fully" sc.Mcheck.sname nprocs)
            false r.Mcheck.truncated;
          match r.Mcheck.violation with
          | None -> ()
          | Some v ->
            Mcheck.pp_violation stderr v;
            Alcotest.fail
              (Printf.sprintf "%s P=%d: violation" sc.Mcheck.sname nprocs))
        (Mcheck.scenarios ~nprocs))
    [ 2; 3 ]

let t_injected_bug_caught () =
  (* dropping one invalidation ack must be detected in at least one
     scenario, with a non-empty counterexample trace *)
  let caught =
    List.filter_map
      (fun sc ->
        (Mcheck.check_exhaustive ~injection:Mcheck.Drop_first_inv_ack sc)
          .Mcheck.violation)
      (Mcheck.scenarios ~nprocs:2)
  in
  Alcotest.(check bool) "at least one scenario catches the dropped ack" true
    (caught <> []);
  List.iter
    (fun (v : Mcheck.violation) ->
      Alcotest.(check bool) "counterexample trace is non-empty" true
        (v.Mcheck.vtrace <> []))
    caught

let t_fuzz_clean () =
  List.iter
    (fun sc ->
      let _, v = Mcheck.fuzz ~seed:7 ~runs:200 sc in
      match v with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": fuzz violation"))
    (Mcheck.scenarios ~nprocs:3)

(* --- random scripts, random interleavings --------------------------- *)

(* Generate small per-node scripts of synchronized accesses: every data
   access happens under the one lock, so interleavings are racy at the
   protocol level but race-free at the data level. *)
let script_gen ~nprocs ~blocks =
  let block = Gen.oneofl blocks in
  let access =
    Gen.oneof
      [ Gen.map (fun b -> Mcheck.Read b) block;
        Gen.map2 (fun b v -> Mcheck.Write (b, v + 1)) block (Gen.int_bound 99);
        Gen.map (fun b -> Mcheck.Write_reg_plus (b, 1)) block ]
  in
  let section =
    Gen.map
      (fun accs -> (Mcheck.Lock 0 :: accs) @ [ Mcheck.Unlock 0 ])
      (Gen.list_size (Gen.int_range 1 2) access)
  in
  let node_script =
    Gen.map List.concat (Gen.list_size (Gen.int_range 0 2) section)
  in
  Gen.array_size (Gen.pure nprocs) node_script

let scenario_of_scripts scripts ~nprocs ~blocks =
  { Mcheck.sname = "random";
    nprocs;
    blocks;
    scripts;
    oracle = (fun _ -> []);
    drf = true (* every access sits inside a Lock 0 critical section *);
    cfg_mod = Fun.id }

(* Drive one random interleaving to completion, checking the state
   invariants (owner in range and a sharer, single exclusive holder,
   ack conservation against in-flight messages, flag/value coherence)
   after every move; at the end the system must be quiescent. *)
let prop_random_trace (seed, scripts) =
  let nprocs = Array.length scripts in
  let blocks = [ 0; 8192 ] in
  let sc = scenario_of_scripts scripts ~nprocs ~blocks in
  let _, v = Mcheck.fuzz ~seed ~runs:3 sc in
  match v with
  | None -> true
  | Some v ->
    Mcheck.pp_violation stderr v;
    false

let trace_gen =
  Gen.pair (Gen.int_bound 1_000_000) (script_gen ~nprocs:3 ~blocks:[ 0; 8192 ])

(* Owner/sharer consistency, stated directly against the final view of
   an exhaustive exploration: fold over the directory and re-check the
   two core rules for every terminal scenario. *)
let t_owner_sharer_consistency () =
  List.iter
    (fun sc ->
      let sys = Mcheck.init_sys sc in
      let cfg = Mcheck.cfg_of sc in
      (* run one deterministic interleaving: always take the first move *)
      let rec go sys n =
        if n > 10_000 then Alcotest.fail "no quiescence"
        else
          match Mcheck.moves cfg ~inj:Mcheck.No_injection sys with
          | [] -> sys
          | (_, next) :: _ -> go (next ()) (n + 1)
      in
      let sys = go sys 0 in
      let v = Mcheck.view sys in
      T.dir_fold
        (fun block e () ->
          Alcotest.(check bool)
            (Printf.sprintf "0x%x owner in range" block)
            true
            (e.T.owner >= 0 && e.T.owner < cfg.T.nprocs);
          Alcotest.(check bool)
            (Printf.sprintf "0x%x owner is a sharer" block)
            true (T.is_sharer e e.T.owner);
          let exclusives =
            List.filter
              (fun n -> T.line_state v ~node:n ~block = T.L_exclusive)
              (List.init cfg.T.nprocs Fun.id)
          in
          Alcotest.(check bool)
            (Printf.sprintf "0x%x at most one exclusive holder" block)
            true
            (List.length exclusives <= 1))
        v ())
    (Mcheck.scenarios ~nprocs:3)

(* --- lossy channels ------------------------------------------------- *)

(* With the adversary allowed a bounded number of drop/dup/swap moves
   per channel, every safety invariant must still hold at every
   reachable state AND every terminal state must have drained its
   channels (eventual delivery => quiescence: a frame the adversary
   dropped is always retransmittable, so a wedged channel is a bug in
   the sublayer model, not an allowed outcome). *)
let t_lossy_exhaustive_clean () =
  List.iter
    (fun sc ->
      let r = Mcheck.check_exhaustive ~lossy:1 sc in
      Alcotest.(check bool)
        (Printf.sprintf "%s P=2 lossy explored fully" sc.Mcheck.sname)
        false r.Mcheck.truncated;
      match r.Mcheck.violation with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": lossy violation"))
    (Mcheck.scenarios ~nprocs:2)

let t_lossy_fuzz_clean () =
  List.iter
    (fun sc ->
      let _, v = Mcheck.fuzz ~lossy:2 ~seed:11 ~runs:150 sc in
      match v with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": lossy fuzz violation"))
    (Mcheck.scenarios ~nprocs:3)

(* --- the node-crash adversary --------------------------------------- *)

(* Exhaustively at P=2: every interleaving of every crash-safe scenario
   with one adversarial halt (and optionally one restart) keeps every
   invariant, never strands a survivor, and quiesces.  This is the
   fault-tolerance proof for directory reconstruction, lock-lease
   takeover, barrier excusal and in-flight redispatch. *)
let t_crash_exhaustive_clean () =
  List.iter
    (fun (crash, recover, tag) ->
      List.iter
        (fun sc ->
          let r = Mcheck.check_exhaustive ~crash ?recover sc in
          Alcotest.(check bool)
            (Printf.sprintf "%s P=2 %s explored fully" sc.Mcheck.sname tag)
            false r.Mcheck.truncated;
          Alcotest.(check bool)
            (Printf.sprintf "%s %s reaches terminals" sc.Mcheck.sname tag)
            true (r.Mcheck.terminals > 0);
          match r.Mcheck.violation with
          | None -> ()
          | Some v ->
            Mcheck.pp_violation stderr v;
            Alcotest.fail
              (Printf.sprintf "%s %s: violation" sc.Mcheck.sname tag))
        (Mcheck.crash_scenarios ~nprocs:2))
    [ (1, None, "crash"); (1, Some 1, "crash+recover") ]

let t_crash_fuzz_clean () =
  List.iter
    (fun sc ->
      let _, v = Mcheck.fuzz ~crash:2 ~recover:1 ~seed:13 ~runs:150 sc in
      match v with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": crash fuzz violation"))
    (Mcheck.crash_scenarios ~nprocs:3)

(* Regression: a node that crashes AFTER arriving at the barrier must
   be excused via the halted mask, not left counted as arrived — the
   interleaving the adversary found when this was wrong.  Driven as a
   directed move sequence so the fix stays pinned even if the
   exhaustive pass's order changes. *)
let t_crash_after_barrier_arrival () =
  let sc =
    { Mcheck.sname = "barrier-crash";
      nprocs = 2;
      blocks = [];
      scripts = [| [ Mcheck.Barrier ]; [ Mcheck.Barrier ] |];
      oracle = (fun _ -> []);
      drf = true;
      cfg_mod = Fun.id }
  in
  let cfg = Mcheck.cfg_of sc in
  let sys = ref (Mcheck.init_sys ~crash:1 sc) in
  let play label =
    match
      List.assoc_opt label (Mcheck.moves cfg ~inj:Mcheck.No_injection !sys)
    with
    | Some next -> sys := next ()
    | None ->
      Alcotest.failf "move %S not enabled (have: %s)" label
        (String.concat "; "
           (List.map fst (Mcheck.moves cfg ~inj:Mcheck.No_injection !sys)))
  in
  play "n1: barrier";
  play "deliver 1->0: [1] barrier_arrive @0x0";
  play "crash n1";
  Alcotest.(check (list string)) "invariants hold" []
    (T.invariants cfg (Mcheck.view !sys));
  (* node 1's arrival must have been excused: node 0 can still pass *)
  play "n0: barrier";
  let rec drain k =
    if k > 50 then Alcotest.fail "survivor never passed the barrier"
    else
      match Mcheck.moves cfg ~inj:Mcheck.No_injection !sys with
      | [] -> ()
      | (_, next) :: _ ->
        sys := next ();
        drain (k + 1)
  in
  drain 0;
  Alcotest.(check (list string)) "terminal quiescent, survivor done" []
    (T.quiescent_invariants cfg (Mcheck.view !sys))

(* --- scaling scenarios: directory modes and scalable sync ----------- *)

(* Exhaustive at P=2 and P=3 over the scale scenarios: limited-pointer
   overflow-to-broadcast (at P=3 with one pointer the entry genuinely
   overflows, so this proves the superset semantics never misses a
   sharer), coarse-vector regions, the MCS-style queue lock and the
   combining-tree barrier. *)
let t_scale_exhaustive_clean () =
  List.iter
    (fun nprocs ->
      List.iter
        (fun sc ->
          let r = Mcheck.check_exhaustive sc in
          Alcotest.(check bool)
            (Printf.sprintf "%s P=%d explored fully" sc.Mcheck.sname nprocs)
            false r.Mcheck.truncated;
          match r.Mcheck.violation with
          | None -> ()
          | Some v ->
            Mcheck.pp_violation stderr v;
            Alcotest.fail
              (Printf.sprintf "%s P=%d: violation" sc.Mcheck.sname nprocs))
        (Mcheck.scale_scenarios ~nprocs))
    [ 2; 3 ]

let t_scale_lossy_exhaustive_clean () =
  List.iter
    (fun sc ->
      let r = Mcheck.check_exhaustive ~lossy:1 sc in
      (* the directed home-stale scenarios are fixed at four nodes;
         under loss their full interleaving space exceeds the budget,
         and the bounded prefix (plus the fuzz pass) is the check *)
      if sc.Mcheck.nprocs <= 2 then
        Alcotest.(check bool)
          (Printf.sprintf "%s P=2 lossy explored fully" sc.Mcheck.sname)
          false r.Mcheck.truncated;
      match r.Mcheck.violation with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": lossy violation"))
    (Mcheck.scale_scenarios ~nprocs:2)

let t_scale_crash_exhaustive_clean () =
  List.iter
    (fun sc ->
      let r = Mcheck.check_exhaustive ~crash:1 sc in
      Alcotest.(check bool)
        (Printf.sprintf "%s P=2 crash explored fully" sc.Mcheck.sname)
        false r.Mcheck.truncated;
      Alcotest.(check bool)
        (Printf.sprintf "%s crash reaches terminals" sc.Mcheck.sname)
        true (r.Mcheck.terminals > 0);
      match r.Mcheck.violation with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": crash violation"))
    (Mcheck.scale_scenarios ~nprocs:2)

let t_scale_fuzz_clean () =
  List.iter
    (fun sc ->
      let _, v = Mcheck.fuzz ~seed:17 ~runs:150 sc in
      match v with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": fuzz violation"))
    (Mcheck.scale_scenarios ~nprocs:3)

(* A sublayer that retransmits but forgets to dedup hands stale frames
   to the protocol; the checker must catch it (stray data replies or
   ack over-delivery) in every P=2 scenario, each with a printable
   counterexample. *)
let t_no_dedup_caught () =
  List.iter
    (fun (sc : Mcheck.scenario) ->
      match
        (Mcheck.check_exhaustive ~injection:Mcheck.Retransmit_no_dedup
           ~lossy:1 sc)
          .Mcheck.violation
      with
      | None ->
        Alcotest.failf "%s: retransmit-without-dedup not caught"
          sc.Mcheck.sname
      | Some v ->
        Alcotest.(check bool)
          (sc.Mcheck.sname ^ ": counterexample trace is non-empty")
          true (v.Mcheck.vtrace <> []))
    (Mcheck.scenarios ~nprocs:2)

(* A store commit reordered past its lock release preserves every
   pre-refinement check — release-order's data oracle deliberately
   tolerates both final outcomes, invariants never see the deferred
   store, quiescence still drains — and ONLY the refinement pass
   catches it, as a divergence at the consumer's stale lock-section
   load, with the committed spec run printed alongside the trace. *)
let t_reordered_release_needs_refinement () =
  let sc = Mcheck.release_order in
  let without =
    Mcheck.check_exhaustive ~injection:Mcheck.Store_past_release sc
  in
  Alcotest.(check bool) "invisible to all pre-refinement checks" true
    (without.Mcheck.violation = None);
  Alcotest.(check bool) "explored fully without refinement" false
    without.Mcheck.truncated;
  let wth =
    Mcheck.check_exhaustive ~injection:Mcheck.Store_past_release ~refine:true
      sc
  in
  match wth.Mcheck.violation with
  | None -> Alcotest.fail "refinement missed the reordered release"
  | Some v ->
    Mcheck.pp_violation stderr v;
    Alcotest.(check bool) "counterexample trace is non-empty" true
      (v.Mcheck.vtrace <> []);
    Alcotest.(check bool) "committed spec run is printed" true
      (v.Mcheck.vcommits <> []);
    Alcotest.(check bool) "the divergence is a refinement error" true
      (List.exists
         (fun e ->
           String.length e >= 11 && String.sub e 0 11 = "refinement:")
         v.Mcheck.verr)

(* The same clean scenario refines without the injection: the weak
   oracle is not what hides the bug. *)
let t_release_order_clean () =
  let r = Mcheck.check_exhaustive ~refine:true Mcheck.release_order in
  (match r.Mcheck.violation with
   | None -> ()
   | Some v ->
     Mcheck.pp_violation stderr v;
     Alcotest.fail "release-order diverges without injection");
  Alcotest.(check bool) "explored fully" false r.Mcheck.truncated

(* --- the visited-set key ------------------------------------------- *)

(* The six lossy:3 P=2 state spaces (the mcheck-lossy benchmark
   workload), pinned so a key that merges or splits states shows up as
   a count change, not only as a slower or faster run. *)
let t_lossy3_counts () =
  List.iter2
    (fun (sc : Mcheck.scenario) want ->
      let r = Mcheck.check_exhaustive ~lossy:3 sc in
      Alcotest.(check bool) (sc.Mcheck.sname ^ " clean") true
        (r.Mcheck.violation = None && not r.Mcheck.truncated);
      Alcotest.(check (pair int int))
        (sc.Mcheck.sname ^ " lossy:3 states/transitions")
        want
        (r.Mcheck.states, r.Mcheck.transitions))
    (Mcheck.scenarios ~nprocs:2)
    [ (2_258, 8_068); (2_452, 8_008); (28_435, 108_387); (1_160, 3_560);
      (30_797, 109_190); (11_272, 42_463) ]

(* Encoder drift: over views reached by random walks through the base,
   lossy, crash and scale families at P=2 and P=3, equal binary keys
   <=> equal canonical strings.  A field that tells reachable views
   apart but is written by only one of [encode] and [canon] breaks one
   direction (the encoders' closed record patterns already reject a
   field nobody encodes).  Views are only compared within one
   scenario's configuration: node-set fields fixed by the
   configuration are keyed but not printed. *)
let key_family k ~nprocs =
  match k with
  | 0 -> (Mcheck.scenarios ~nprocs, fun sc -> Mcheck.init_sys sc)
  | 1 -> (Mcheck.scenarios ~nprocs, fun sc -> Mcheck.init_sys ~lossy:2 sc)
  | 2 ->
    ( Mcheck.crash_scenarios ~nprocs,
      fun sc -> Mcheck.init_sys ~crash:1 ~recover:1 sc )
  | _ -> (Mcheck.scale_scenarios ~nprocs, fun sc -> Mcheck.init_sys sc)

let walk_views cfg sys ~seed ~steps =
  let rng = Shasta_prng.Prng.create seed in
  let rec go sys k acc =
    let acc = Mcheck.view sys :: acc in
    match Mcheck.moves cfg ~inj:Mcheck.No_injection sys with
    | [] -> acc
    | _ when k = 0 -> acc
    | ms ->
      let _, next =
        List.nth ms (Shasta_prng.Prng.int rng (List.length ms))
      in
      go (next ()) (k - 1) acc
  in
  go sys steps []

let prop_key_matches_canon (family, nprocs, pick, seed) =
  let scs, init = key_family family ~nprocs in
  let sc = List.nth scs (pick mod List.length scs) in
  let cfg = Mcheck.cfg_of sc in
  let views =
    List.concat_map
      (fun k -> walk_views cfg (init sc) ~seed:(seed + k) ~steps:40)
      [ 0; 1; 2 ]
  in
  let keyed =
    List.map
      (fun v ->
        let b = Buffer.create 256 in
        T.encode b v;
        (Buffer.contents b, T.canon v))
      views
  in
  List.for_all
    (fun (k1, c1) ->
      List.for_all (fun (k2, c2) -> String.equal k1 k2 = String.equal c1 c2)
        keyed)
    keyed

let key_gen =
  Gen.(
    quad (int_bound 3) (int_range 2 3) (int_bound 10) (int_bound 1_000_000))

(* --- deterministic replay ------------------------------------------- *)

let t_replay_reproduces () =
  let open Shasta_runtime in
  let prog = Shasta_apps.Lu.program ~n:16 ~bs:4 () in
  let spec = { (Api.default_spec prog) with nprocs = 4 } in
  let state, _, _ = Api.prepare spec in
  state.State.record_inputs <- true;
  let _ = Cluster.run_app state in
  let r = Replay.replay state in
  Alcotest.(check bool) "some protocol steps were recorded" true
    (r.Replay.steps > 0);
  Alcotest.(check bool) "no invariant failures during replay" true
    (r.Replay.invariant_failures = []);
  Alcotest.(check bool) "replayed view equals the live final view" false
    r.Replay.mismatch

let t_replay_under_faults () =
  (* the engine records protocol inputs AFTER the reliable sublayer
     (post-dedup, post-resequencing), so a run over a faulty wire
     replays exactly like a clean one: the log already contains the
     repaired, exactly-once FIFO stream the core consumed *)
  let open Shasta_runtime in
  let prog = Shasta_apps.Lu.program ~n:16 ~bs:4 () in
  let spec =
    { (Api.default_spec prog) with
      nprocs = 4;
      net_faults = Some { Shasta_network.Network.standard with drop = 0.05 } }
  in
  let state, _, _ = Api.prepare spec in
  state.State.record_inputs <- true;
  let _ = Cluster.run_app state in
  Alcotest.(check bool) "faults actually fired" true
    ((Shasta_network.Network.fault_stats state.State.net)
       .Shasta_network.Network.retxs > 0);
  let r = Replay.replay state in
  Alcotest.(check bool) "steps recorded" true (r.Replay.steps > 0);
  Alcotest.(check bool) "replay ok under net faults" true (Replay.ok r)

let t_replay_sc_mode () =
  (* sequential consistency exercises the stalling-store re-entry *)
  let open Shasta_runtime in
  let prog = Shasta_apps.Ocean.program ~n:18 ~iters:2 () in
  let spec =
    { (Api.default_spec prog) with
      nprocs = 4;
      consistency = State.Sequential }
  in
  let state, _, _ = Api.prepare spec in
  state.State.record_inputs <- true;
  let _ = Cluster.run_app state in
  let r = Replay.replay state in
  Alcotest.(check bool) "replay ok under SC" true (Replay.ok r)

let () =
  Alcotest.run "mcheck"
    [ ( "exhaustive",
        [ Alcotest.test_case "scenarios clean at P=2,3" `Quick
            t_exhaustive_clean;
          Alcotest.test_case "owner/sharer consistency" `Quick
            t_owner_sharer_consistency;
          Alcotest.test_case "injected dropped ack caught" `Quick
            t_injected_bug_caught ] );
      ( "fuzz",
        [ Alcotest.test_case "built-in scenarios" `Quick t_fuzz_clean;
          qtest "random scripts keep invariants" ~count:60 trace_gen
            prop_random_trace ] );
      ( "lossy",
        [ Alcotest.test_case "scenarios clean at P=2 (exhaustive)" `Quick
            t_lossy_exhaustive_clean;
          Alcotest.test_case "scenarios clean at P=3 (fuzz)" `Quick
            t_lossy_fuzz_clean;
          Alcotest.test_case "retransmit-without-dedup caught" `Quick
            t_no_dedup_caught ] );
      ( "refine",
        [ Alcotest.test_case "reordered release caught only by refinement"
            `Quick t_reordered_release_needs_refinement;
          Alcotest.test_case "release-order clean without injection" `Quick
            t_release_order_clean ] );
      ( "crash",
        [ Alcotest.test_case "scenarios clean at P=2 (exhaustive)" `Quick
            t_crash_exhaustive_clean;
          Alcotest.test_case "scenarios clean at P=3 (fuzz)" `Quick
            t_crash_fuzz_clean;
          Alcotest.test_case "crash after barrier arrival excused" `Quick
            t_crash_after_barrier_arrival ] );
      ( "scale",
        [ Alcotest.test_case "scale scenarios clean at P=2,3" `Quick
            t_scale_exhaustive_clean;
          Alcotest.test_case "scale scenarios clean under loss (P=2)" `Quick
            t_scale_lossy_exhaustive_clean;
          Alcotest.test_case "scale scenarios clean under crash (P=2)" `Quick
            t_scale_crash_exhaustive_clean;
          Alcotest.test_case "scale scenarios clean at P=3 (fuzz)" `Quick
            t_scale_fuzz_clean ] );
      ( "key",
        [ Alcotest.test_case "lossy:3 state counts pinned (P=2)" `Quick
            t_lossy3_counts;
          qtest "binary view key agrees with canon" ~count:100 key_gen
            prop_key_matches_canon ] );
      ( "replay",
        [ Alcotest.test_case "lu reproduces" `Quick t_replay_reproduces;
          Alcotest.test_case "ocean under SC" `Quick t_replay_sc_mode;
          Alcotest.test_case "lu under net faults" `Quick
            t_replay_under_faults ] )
    ]

(* Shared helpers for the test suites. *)

open Shasta_runtime

(* Run a MiniC program and return (printed output, phase result). *)
let run ?(opts = Some Shasta.Opts.full) ?(nprocs = 1)
    ?(net = Shasta_network.Network.memory_channel) ?net_faults ?node_faults
    ?fixed_block ?obs ?(init_proc = "appinit") ?(work_proc = "work") prog =
  let spec =
    { (Api.default_spec prog) with
      opts; nprocs; net; net_faults; node_faults; fixed_block; obs }
  in
  let r = Api.run ~init_proc ~work_proc spec in
  (r.phase.output, r)

(* Output of the original (uninstrumented) binary on one node — the
   ground truth every instrumented/parallel run must reproduce. *)
let ground_truth ?(init_proc = "appinit") ?(work_proc = "work") prog =
  fst (run ~opts:None ~nprocs:1 ~init_proc ~work_proc prog)

(* Assert the instrumented run at [nprocs] produces the ground-truth
   output. *)
let check_matches_sequential ?(opts = Shasta.Opts.full) ~nprocs prog name =
  let expected = ground_truth prog in
  let got, _ = run ~opts:(Some opts) ~nprocs prog in
  Alcotest.(check string) name expected got

(* A tiny program wrapper: statements for node 0 only, printing via
   print_int. *)
let single_proc_prog body =
  Shasta_minic.Builder.prog [ Shasta_minic.Builder.proc "work" body ]

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* --- canonical event traces and their digests ----------------------- *)

(* Run with a text sink attached and return the canonical trace: every
   emitted event rendered by [Sink.line], in emission order.  This is
   the byte-exact protocol behaviour of the run — the golden-trace
   suite digests it to pin workloads down across refactors. *)
let run_trace ?(opts = Some Shasta.Opts.full) ?(nprocs = 1) ?net ?net_faults
    ?node_faults prog =
  let obs = Shasta_obs.Obs.create ~nprocs () in
  let lines = ref [] in
  Shasta_obs.Obs.attach obs
    { Shasta_obs.Sink.on_record =
        (fun r -> lines := Shasta_obs.Sink.line r :: !lines);
      flush = (fun () -> ()) };
  let out, r = run ~opts ~nprocs ?net ?net_faults ?node_faults ~obs prog in
  (List.rev !lines, out, r)

(* Digest a trace in fixed-size chunks so a mismatch can be narrowed to
   its first diverging window without storing the full golden text. *)
let chunk_lines = 64

let digest_chunks lines =
  let rec go acc chunk n = function
    | [] ->
      let acc =
        if chunk = [] then acc
        else Digest.to_hex (Digest.string (String.concat "\n" (List.rev chunk)))
             :: acc
      in
      List.rev acc
    | l :: rest ->
      if n = chunk_lines then
        go
          (Digest.to_hex (Digest.string (String.concat "\n" (List.rev chunk)))
           :: acc)
          [ l ] 1 rest
      else go acc (l :: chunk) (n + 1) rest
  in
  (List.length lines, go [] [] 0 lines)

(* The workloads pinned by the golden-trace suite, with the exact specs
   the digests were generated under (fault-free default network). *)
let golden_runs =
  [ ("lu", 4, fun () -> Shasta_apps.Lu.program ~n:16 ~bs:4 ());
    (* same program at P=16: exercises the scheduler's node pick and
       per-destination earliest arrival beyond a handful of nodes *)
    ("lu16", 16, fun () -> Shasta_apps.Lu.program ~n:16 ~bs:4 ());
    ("fft", 4, fun () -> Shasta_apps.Fft.program ~n:64 ());
    ("radix", 4, fun () -> Shasta_apps.Radix.program ~nkeys:1024 ~max_bits:16 ());
    ( "sht",
      4,
      fun () ->
        Shasta_apps.Sht.program ~cfg:Shasta_apps.Apps.sht_test_cfg
          ~wl:Shasta_apps.Apps.sht_test_wl () )
  ]

(* Golden workloads run over the faulty wire ([Network.standard]: drops,
   duplicates and reorders repaired by the reliable-delivery sublayer),
   so the retransmission timing and the fault events are pinned too.
   A short write-heavy KV run at P=8 over shared keys keeps the digest
   list small while every node contends for the same buckets. *)
let lossy_golden_runs =
  [ ( "sht8-lossy",
      8,
      fun () ->
        Shasta_apps.Sht.program ~cfg:Shasta_apps.Apps.sht_test_cfg
          ~wl:
            (Shasta_workload.Workload.spec ~nkeys:64 ~ops:64
               ~mix:Shasta_workload.Workload.A ~quanta:32 ())
          () ) ]

let lossy_faults = Shasta_network.Network.standard

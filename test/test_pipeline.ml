(* Timing-model tests: the pipeline features the paper's overhead
   analysis depends on — dual issue, load-use and shift-use delays,
   static branch prediction, the single memory port. *)

open Shasta_isa
open Shasta_machine

(* Issue [i] with no data access and no branch outcome. *)
let issue p i ~iaddr =
  Pipeline.issue p (Pipeline.decode i) ~iaddr ~maddr:Pipeline.no_access
    ~branch:Pipeline.B_none

let issue_seq ?(config = Pipeline.alpha_21064a) insns =
  let p = Pipeline.create config in
  List.iter (fun i -> issue p i ~iaddr:0) insns;
  Pipeline.cycle p

let add d a b : Insn.t = Opi (Addq, d, Reg a, b)
let shift d a : Insn.t = Opi (Srl, d, Imm 6, a)

let t_dual_issue () =
  let two = issue_seq [ add 1 2 3; add 4 5 6 ] in
  let four =
    issue_seq ~config:Pipeline.alpha_21164
      [ add 1 2 3; add 4 5 6; add 7 8 9; add 10 11 12 ]
  in
  Alcotest.(check int) "two adds in one group (21064A)" 0 two;
  Alcotest.(check int) "four adds in one group (21164)" 0 four

let t_dependent_serializes () =
  let c = issue_seq [ add 1 2 3; add 4 1 5 ] in
  Alcotest.(check bool) "dependent add waits" true (c >= 1)

let t_shift_use_delay () =
  (* the 21064A's shift result delay: srl ; use stalls one extra cycle
     compared to srl ; unrelated ; use (Figure 4's motivation) *)
  let stalled = issue_seq [ shift 1 2; add 3 1 4 ] in
  let filled = issue_seq [ shift 1 2; add 9 10 11; add 3 1 4 ] in
  Alcotest.(check bool) "shift-use stalls" true (stalled >= 1);
  Alcotest.(check bool) "delay slot fill is free" true (filled <= stalled + 1);
  let fast =
    issue_seq ~config:Pipeline.alpha_21164 [ shift 1 2; add 3 1 4 ]
  in
  Alcotest.(check bool) "21164 shift cheaper" true (fast <= stalled)

let t_load_use_delay () =
  let quick = issue_seq [ Ldq (1, 0, 2); add 5 6 7 ] in
  let stalled = issue_seq [ Ldq (1, 0, 2); add 5 1 7 ] in
  Alcotest.(check bool) "load-use stalls more than load-other" true
    (stalled > quick)

let t_single_memory_port () =
  let c = issue_seq [ Ldq (1, 0, 30); Ldq (2, 8, 30) ] in
  Alcotest.(check bool) "two loads cannot share a cycle" true (c >= 1)

let t_branch_prediction () =
  let p = Pipeline.create Pipeline.alpha_21064a in
  Pipeline.issue p (Pipeline.decode (Insn.Bc (Eq, 1, "x"))) ~iaddr:0
    ~maddr:Pipeline.no_access ~branch:Pipeline.B_taken_forward;
  let mispredicted = Pipeline.cycle p in
  let p2 = Pipeline.create Pipeline.alpha_21064a in
  Pipeline.issue p2 (Pipeline.decode (Insn.Bc (Eq, 1, "x"))) ~iaddr:0
    ~maddr:Pipeline.no_access ~branch:Pipeline.B_taken_backward;
  Alcotest.(check bool) "mispredict costs" true
    (mispredicted > Pipeline.cycle p2)

let t_fp_latency () =
  let dep = issue_seq [ Opf (Addt, 1, 2, 3); Opf (Mult, 4, 1, 5) ] in
  let indep = issue_seq [ Opf (Addt, 1, 2, 3); Opf (Mult, 4, 6, 5) ] in
  Alcotest.(check bool) "fp dependence stalls fp latency" true
    (dep >= Pipeline.alpha_21064a.fp_latency);
  Alcotest.(check bool) "independent fp cheaper" true (indep < dep)

let t_caches_charge_misses () =
  let caches = Cache.alpha_hierarchy () in
  let p = Pipeline.create ~caches Pipeline.alpha_21064a in
  Pipeline.issue p (Pipeline.decode (Insn.Ldq (1, 0, 2))) ~iaddr:0
    ~maddr:0x10000 ~branch:Pipeline.B_none;
  issue p (add 3 1 4) ~iaddr:4;
  let cold = Pipeline.cycle p in
  Alcotest.(check bool) "cold miss costs more than the hit latency" true
    (cold > Pipeline.alpha_21064a.load_latency)

let t_stall_resets_group () =
  let p = Pipeline.create Pipeline.alpha_21064a in
  issue p (add 1 2 3) ~iaddr:0;
  Pipeline.stall p 10;
  Alcotest.(check int) "stall advances time" 10 (Pipeline.cycle p);
  Pipeline.advance_to p 5;
  Alcotest.(check int) "advance_to never goes backward" 10 (Pipeline.cycle p)

(* --- decoded image ---------------------------------------------------- *)

(* Instructions of every [Insn.t] constructor (every [rt] entry point
   too), with registers drawn from the whole file, r31/f31 included. *)
let insn_gen : Insn.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let reg = int_range 0 31 and disp = int_range (-64) 64 and lab = pure "L" in
  let size = oneofl [ Insn.Long; Insn.Quad ] in
  let iop =
    oneofl
      Insn.[ Addq; Subq; Mulq; Divq; Remq; Addl; Subl; Mull; And_; Or_;
             Xor_; Sll; Srl; Sra; Cmpeq; Cmplt; Cmple; Cmpult; Cmpule ]
  in
  let fop = oneofl Insn.[ Addt; Subt; Mult; Divt; Sqrtt; Cmpteq; Cmptlt; Cmptle ] in
  let cond = oneofl Insn.[ Eq; Ne; Lt; Le; Gt; Ge; Lbs; Lbc ] in
  let operand =
    oneof [ map (fun r -> Insn.Reg r) reg; map (fun i -> Insn.Imm i) disp ]
  in
  let mem k = map3 k reg disp reg in
  let refill =
    oneof
      [ map2 (fun r s -> Insn.Rint (r, s)) reg size;
        map (fun f -> Insn.Rflt f) reg ]
  in
  let access =
    map3 (fun disp asize is_store -> { Insn.disp; asize; is_store }) disp size bool
  in
  let range =
    map2 (fun rbase accesses -> { Insn.rbase; accesses }) reg
      (list_size (int_range 1 3) access)
  in
  let rt =
    oneof
      [ map3 (fun size bsize dest -> Insn.Malloc { size; bsize; dest }) reg reg reg;
        map2 (fun size dest -> Insn.Malloc_priv { size; dest }) reg reg;
        map (fun r -> Insn.Lock r) reg;
        map (fun r -> Insn.Unlock r) reg;
        pure Insn.Barrier;
        map (fun r -> Insn.Flag_set r) reg;
        map (fun r -> Insn.Flag_wait r) reg;
        map (fun r -> Insn.Print_int r) reg;
        map (fun f -> Insn.Print_float f) reg;
        map (fun r -> Insn.Rdcycle r) reg;
        pure Insn.Exit_thread ]
  in
  oneof
    [ map (fun l -> Insn.Lab l) lab;
      mem (fun d x b -> Insn.Lda (d, x, b));
      map2 (fun (op, d) (a, b) -> Insn.Opi (op, d, a, b)) (pair iop reg)
        (pair operand reg);
      map2 (fun (op, d) (a, b) -> Insn.Opf (op, d, a, b)) (pair fop reg)
        (pair reg reg);
      mem (fun d x b -> Insn.Ldl (d, x, b));
      mem (fun d x b -> Insn.Ldq (d, x, b));
      mem (fun d x b -> Insn.Ldq_u (d, x, b));
      map3 (fun d a b -> Insn.Extbl (d, a, b)) reg reg reg;
      mem (fun r x b -> Insn.Stl (r, x, b));
      mem (fun r x b -> Insn.Stq (r, x, b));
      mem (fun f x b -> Insn.Ldt (f, x, b));
      mem (fun f x b -> Insn.Stt (f, x, b));
      map2 (fun r f -> Insn.Cvtqt (r, f)) reg reg;
      map2 (fun f r -> Insn.Cvttq (f, r)) reg reg;
      map2 (fun d f -> Insn.Fmov (d, f)) reg reg;
      map (fun l -> Insn.Br l) lab;
      map3 (fun c r l -> Insn.Bc (c, r, l)) cond reg lab;
      map2 (fun f l -> Insn.Fbeq (f, l)) reg lab;
      map2 (fun f l -> Insn.Fbne (f, l)) reg lab;
      pure (Insn.Jsr "f");
      pure Insn.Ret;
      pure Insn.Poll;
      map3 (fun base disp refill -> Insn.Call_load_miss { base; disp; refill })
        reg disp refill;
      map2
        (fun (base, disp) (ssize, store_done) ->
          Insn.Call_store_miss { base; disp; ssize; store_done })
        (pair reg disp) (pair size bool);
      map (fun ranges -> Insn.Call_batch_miss { ranges })
        (list_size (int_range 1 3) range);
      pure Insn.Batch_end;
      map (fun r -> Insn.Rt_call r) rt ]

(* The decoded form is [Insn]'s operand tables, minus the zero
   registers, which never stall and are never written. *)
let prop_decode_agrees i =
  let d = Pipeline.decode i in
  let live l = List.filter (fun r -> r <> Pipeline.no_reg) l in
  let reg o = Option.value o ~default:Pipeline.no_reg in
  Array.to_list d.srcs = live (Insn.uses i)
  && Array.to_list d.fsrcs = live (Insn.fuses i)
  && d.dst = reg (Insn.def i)
  && d.fdst = reg (Insn.fdef i)
  && d.mem = Insn.is_mem i
  && d.store = Insn.is_store i

let t_decode_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"decoded operands agree with Insn" ~count:2000
       ~print:Asm.to_string insn_gen prop_decode_agrees)

let () =
  Alcotest.run "pipeline"
    [ ( "issue",
        [ Alcotest.test_case "dual issue" `Quick t_dual_issue;
          Alcotest.test_case "dependences" `Quick t_dependent_serializes;
          Alcotest.test_case "shift-use delay" `Quick t_shift_use_delay;
          Alcotest.test_case "load-use delay" `Quick t_load_use_delay;
          Alcotest.test_case "memory port" `Quick t_single_memory_port;
          Alcotest.test_case "branch prediction" `Quick t_branch_prediction;
          Alcotest.test_case "fp latency" `Quick t_fp_latency;
          Alcotest.test_case "cache misses" `Quick t_caches_charge_misses;
          Alcotest.test_case "stalls" `Quick t_stall_resets_group ] );
      ("decode", [ t_decode_agrees ]) ]

(* Static in-order issue timing model.

   Models the features of the Alpha 21064A and 21164 the paper's
   overhead analysis depends on (Sections 3.1, 5.1): multiple issue with
   a single memory port, the one-cycle shift-use delay on the 21064A
   (why Figure 4 beats Figure 2), load-use delay (why the flag compare
   is sunk below the load), long FP compare/branch latency (why FP loads
   are checked through an extra integer load), and static branch
   prediction (backward taken / forward not-taken).  A register
   scoreboard tracks result availability; issue is in order. *)

open Shasta_isa

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
  fp_branch_cost : int; (* extra cycles to resolve an FP branch *)
  mispredict_cycles : int;
  call_cycles : int; (* jsr/ret overhead beyond issue *)
}

(* 275 MHz 21064A: dual issue, 3-cycle loads, shift results delayed one
   cycle (Section 3.1). *)
let alpha_21064a =
  { cpu_name = "21064A"; issue_width = 2; load_latency = 3;
    shift_latency = 2; int_latency = 1; mul_latency = 12; div_latency = 40;
    fp_latency = 6; fp_div_latency = 34; fp_branch_cost = 4;
    mispredict_cycles = 4; call_cycles = 2 }

(* 21164: quad issue, 2-cycle loads, single-cycle shifts — "fewer
   pipeline stalls and dual-issue of some of the checking code". *)
let alpha_21164 =
  { cpu_name = "21164"; issue_width = 4; load_latency = 2;
    shift_latency = 1; int_latency = 1; mul_latency = 8; div_latency = 30;
    fp_latency = 4; fp_div_latency = 22; fp_branch_cost = 3;
    mispredict_cycles = 5; call_cycles = 2 }

(* Static prediction outcome of a branch as issued: its direction and
   whether it was taken.  Constant constructors, so passing one costs
   nothing on the per-instruction path. *)
type branch_info =
  | B_none
  | B_taken_forward
  | B_taken_backward
  | B_not_taken_forward
  | B_not_taken_backward

(* Result-latency and control-cost classes, resolved against the
   [config] at issue time (the decoded image is config-independent). *)
type latency = L_int | L_load | L_shift | L_mul | L_div | L_fp | L_fp_div
type control = C_none | C_fp_branch | C_call

(* What issue needs of an instruction, decoded once per image.  The
   register sets come from [Insn.uses]/[fuses]/[def]/[fdef], so the
   operand tables stay spelled once, in [Insn]. *)
type decoded = {
  srcs : int array; (* integer registers read, r31 (always ready) dropped *)
  fsrcs : int array; (* FP registers read, f31 dropped *)
  dst : int; (* integer register written; [no_reg] for none *)
  fdst : int; (* FP register written; [no_reg] for none *)
  mem : bool;
  store : bool;
  latency : latency;
  control : control;
}

(* Register 31 reads as zero and is never written. *)
let no_reg = 31

let latency_of (i : Insn.t) =
  match i with
  | Ldl _ | Ldq _ | Ldq_u _ | Ldt _ -> L_load
  | Opi ((Sll | Srl | Sra), _, _, _) -> L_shift
  | Opi (Mulq, _, _, _) | Opi (Mull, _, _, _) -> L_mul
  | Opi ((Divq | Remq), _, _, _) -> L_div
  | Opf ((Divt | Sqrtt), _, _, _) -> L_fp_div
  | Opf _ | Cvtqt _ | Cvttq _ | Fmov _ -> L_fp
  | _ -> L_int

let control_of (i : Insn.t) =
  match i with
  | Fbeq _ | Fbne _ -> C_fp_branch
  | Jsr _ | Ret -> C_call
  | _ -> C_none

let decode (i : Insn.t) =
  let regs l = Array.of_list (List.filter (fun r -> r < no_reg) l) in
  let reg = Option.value ~default:no_reg in
  { srcs = regs (Insn.uses i);
    fsrcs = regs (Insn.fuses i);
    dst = reg (Insn.def i);
    fdst = reg (Insn.fdef i);
    mem = Insn.is_mem i;
    store = Insn.is_store i;
    latency = latency_of i;
    control = control_of i }

(* The data address passed to [issue] for an instruction that touches
   no memory.  No real access uses it: every load and store is at least
   4-aligned (ldq_u clears the low bits itself). *)
let no_access = -1

type t = {
  config : config;
  caches : Cache.hierarchy option; (* None = ideal memory, used by Table 1 *)
  ireg_ready : int array;
  freg_ready : int array;
  mutable cycle : int;
  mutable slots_used : int;
  mutable mem_used : bool;
  mutable insns : int;
}

let create ?caches config =
  { config; caches;
    ireg_ready = Array.make 32 0;
    freg_ready = Array.make 32 0;
    cycle = 0; slots_used = 0; mem_used = false; insns = 0 }

let cycle t = t.cycle
let insns t = t.insns

let reset t =
  Array.fill t.ireg_ready 0 32 0;
  Array.fill t.freg_ready 0 32 0;
  t.cycle <- 0;
  t.slots_used <- 0;
  t.mem_used <- false;
  t.insns <- 0

(* Advance time by [n] stall cycles (handler entry, polling, ...). *)
let stall t n =
  if n > 0 then begin
    t.cycle <- t.cycle + n;
    t.slots_used <- 0;
    t.mem_used <- false
  end

let advance_to t when_ =
  if when_ > t.cycle then begin
    t.cycle <- when_;
    t.slots_used <- 0;
    t.mem_used <- false
  end

let result_latency config = function
  | L_int -> config.int_latency
  | L_load -> config.load_latency
  | L_shift -> config.shift_latency
  | L_mul -> config.mul_latency
  | L_div -> config.div_latency
  | L_fp -> config.fp_latency
  | L_fp_div -> config.fp_div_latency

let control_cost config = function
  | C_none -> 0
  | C_fp_branch -> config.fp_branch_cost
  | C_call -> config.call_cycles

(* Static prediction: backward branches predicted taken, forward
   branches predicted not-taken. *)
let mispredicted = function
  | B_taken_forward | B_not_taken_backward -> true
  | B_none | B_taken_backward | B_not_taken_forward -> false

(* Issue one decoded instruction.  [iaddr] is its text address (for the
   I-cache), [maddr] the data address of a memory access (for the
   D-cache), or [no_access].  Allocates nothing. *)
let issue t d ~iaddr ~maddr ~branch =
  let c = t.config in
  t.insns <- t.insns + 1;
  (* instruction fetch *)
  (match t.caches with
   | Some h ->
     let extra = Cache.iaccess h iaddr in
     if extra > 0 then stall t extra
   | None -> ());
  (* wait for source operands *)
  let ready = ref t.cycle in
  for k = 0 to Array.length d.srcs - 1 do
    let r = t.ireg_ready.(d.srcs.(k)) in
    if r > !ready then ready := r
  done;
  for k = 0 to Array.length d.fsrcs - 1 do
    let r = t.freg_ready.(d.fsrcs.(k)) in
    if r > !ready then ready := r
  done;
  advance_to t !ready;
  (* structural constraints: issue width, single memory port *)
  if t.slots_used >= c.issue_width then begin
    t.cycle <- t.cycle + 1;
    t.slots_used <- 0;
    t.mem_used <- false
  end;
  if d.mem && t.mem_used then begin
    t.cycle <- t.cycle + 1;
    t.slots_used <- 0;
    t.mem_used <- false
  end;
  t.slots_used <- t.slots_used + 1;
  if d.mem then t.mem_used <- true;
  (* data cache *)
  let dextra =
    if maddr = no_access then 0
    else match t.caches with Some h -> Cache.daccess h maddr | None -> 0
  in
  (* record result availability *)
  let lat = result_latency c d.latency + dextra in
  if d.dst <> no_reg then t.ireg_ready.(d.dst) <- t.cycle + lat;
  if d.fdst <> no_reg then t.freg_ready.(d.fdst) <- t.cycle + lat;
  (* stores that miss stall the single memory port *)
  if d.store && dextra > 0 then stall t dextra;
  (* control flow *)
  stall t (control_cost c d.control);
  if mispredicted branch then stall t c.mispredict_cycles
  else
    match branch with
    | B_taken_backward ->
      (* a taken branch ends the issue group *)
      t.cycle <- t.cycle + 1;
      t.slots_used <- 0;
      t.mem_used <- false
    | _ -> ()

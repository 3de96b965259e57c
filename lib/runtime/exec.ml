(* Instruction interpreter with cycle accounting.

   Executes the (instrumented) executable: real instructions go through
   the pipeline/cache timing model and ordinary memory semantics — the
   inline checks are just code — while the pseudo-instructions enter the
   Shasta runtime (Engine).  The interpreter yields control back to the
   scheduler whenever the node interacts with the outside world, blocks,
   finishes, or exhausts its fuel, keeping cross-node timing causal. *)

open Shasta_isa
open Shasta_machine

exception Sim_error of string

type yield = Y_running | Y_blocked | Y_done

let sext32 v = if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

let eval_iop (op : Insn.iop) src1 src2 =
  match op with
  | Addq -> src1 + src2
  | Subq -> src1 - src2
  | Mulq -> src1 * src2
  | Divq ->
    if src2 = 0 then raise (Sim_error "integer division by zero");
    (* truncating division, as on hardware *)
    let q = abs src1 / abs src2 in
    if src1 >= 0 = (src2 >= 0) then q else -q
  | Remq ->
    if src2 = 0 then raise (Sim_error "integer remainder by zero");
    src1 - (src2 * (let q = abs src1 / abs src2 in
                    if src1 >= 0 = (src2 >= 0) then q else -q))
  | Addl -> sext32 ((src1 + src2) land 0xFFFFFFFF)
  | Subl -> sext32 ((src1 - src2) land 0xFFFFFFFF)
  | Mull -> sext32 (src1 * src2 land 0xFFFFFFFF)
  | And_ -> src1 land src2
  | Or_ -> src1 lor src2
  | Xor_ -> src1 lxor src2
  | Sll -> src1 lsl (src2 land 63)
  | Srl -> src1 lsr (src2 land 63)
  | Sra -> src1 asr (src2 land 63)
  | Cmpeq -> if src1 = src2 then 1 else 0
  | Cmplt -> if src1 < src2 then 1 else 0
  | Cmple -> if src1 <= src2 then 1 else 0
  | Cmpult ->
    if Int64.unsigned_compare (Int64.of_int src1) (Int64.of_int src2) < 0
    then 1 else 0
  | Cmpule ->
    if Int64.unsigned_compare (Int64.of_int src1) (Int64.of_int src2) <= 0
    then 1 else 0

(* Inlined, like [set_freg], so FP operands and results stay unboxed on
   the per-instruction path. *)
let[@inline] eval_fop (op : Insn.fop) a b =
  match op with
  | Addt -> a +. b
  | Subt -> a -. b
  | Mult -> a *. b
  | Divt -> a /. b
  | Sqrtt -> sqrt a
  | Cmpteq -> if a = b then 1.0 else 0.0
  | Cmptlt -> if a < b then 1.0 else 0.0
  | Cmptle -> if a <= b then 1.0 else 0.0

let eval_cond (c : Insn.cond) v =
  match c with
  | Eq -> v = 0
  | Ne -> v <> 0
  | Lt -> v < 0
  | Le -> v <= 0
  | Gt -> v > 0
  | Ge -> v >= 0
  | Lbs -> v land 1 = 1
  | Lbc -> v land 1 = 0

(* Values for the paper's longword/quadword flag comparison. *)
let operand_value (node : Node.t) = function
  | Insn.Reg r -> node.regs.(r)
  | Insn.Imm i -> i

(* The work procedure returned or called exit: mark the thread done and
   report it, giving traces an end-of-track marker per node. *)
let finish state (node : Node.t) =
  node.status <- Finished;
  let site =
    { Shasta_obs.Event.sproc = node.pc_proc;
      spc = (if node.pc_idx > 0 then node.pc_idx - 1 else 0);
      sstack = node.call_stack }
  in
  Shasta_obs.Obs.emit state.State.config.obs ~site ~node:node.id
    ~time:(Node.time node) Shasta_obs.Event.Node_finished

let set_ireg (node : Node.t) r v = if r <> Reg.zero then node.regs.(r) <- v
let[@inline] set_freg (node : Node.t) f v = if f <> Reg.fzero then node.fregs.(f) <- v

let refill_of (node : Node.t) ~addr (r : Insn.refill) =
  match r with
  | Insn.Rint (d, Insn.Long) ->
    fun () -> set_ireg node d (Memory.read_long node.mem addr)
  | Insn.Rint (d, Insn.Quad) ->
    fun () -> set_ireg node d (Memory.read_quad node.mem addr)
  | Insn.Rflt f -> fun () -> set_freg node f (Memory.read_float node.mem addr)

(* Issue through the timing model: no data access, a data access at
   [addr], or a branch that jumps to [tgt] when [taken]. *)
let issue (node : Node.t) dec ~iaddr =
  Pipeline.issue node.pipe dec ~iaddr ~maddr:Pipeline.no_access
    ~branch:Pipeline.B_none

let issue_mem (node : Node.t) dec ~iaddr addr =
  Pipeline.issue node.pipe dec ~iaddr ~maddr:addr ~branch:Pipeline.B_none

let branch (node : Node.t) dec ~iaddr ~idx taken tgt =
  let backward = tgt <= idx in
  let branch : Pipeline.branch_info =
    match (taken, backward) with
    | true, true -> B_taken_backward
    | true, false -> B_taken_forward
    | false, true -> B_not_taken_backward
    | false, false -> B_not_taken_forward
  in
  Pipeline.issue node.pipe dec ~iaddr ~maddr:Pipeline.no_access ~branch;
  if taken then node.pc_idx <- tgt

(* Execute the running node's next instruction.  Returns [false] when
   the node must yield to the scheduler: it entered the runtime (which
   may block it or change what other nodes see) or finished. *)
let step state image (node : Node.t) =
  let fp = image.Image.fprocs.(node.pc_proc) in
  if node.pc_idx >= Array.length fp.code then begin
    (* fell off the end of a procedure: implicit return *)
    (match node.call_stack with
     | [] -> finish state node
     | (p, i) :: rest ->
       node.call_stack <- rest;
       node.pc_proc <- p;
       node.pc_idx <- i);
    true
  end
  else begin
    let idx = node.pc_idx in
    let ins = fp.code.(idx) in
    let dec = fp.decoded.(idx) in
    let iaddr = fp.base + fp.offset.(idx) in
    node.pc_idx <- idx + 1;
    if Insn.bytes ins > 0 then
      node.counters.insns <- node.counters.insns + 1;
    match ins with
    | Lab _ -> true
    | Lda (d, disp, b) ->
      issue node dec ~iaddr;
      set_ireg node d (node.regs.(b) + disp);
      true
    | Opi (op, d, operand, rb) ->
      issue node dec ~iaddr;
      set_ireg node d
        (eval_iop op node.regs.(rb) (operand_value node operand));
      true
    | Opf (op, fd, fa, fb) ->
      issue node dec ~iaddr;
      set_freg node fd (eval_fop op node.fregs.(fa) node.fregs.(fb));
      true
    | Ldl (d, disp, b) ->
      let addr = node.regs.(b) + disp in
      issue_mem node dec ~iaddr addr;
      set_ireg node d (Memory.read_long node.mem addr);
      true
    | Ldq (d, disp, b) ->
      let addr = node.regs.(b) + disp in
      issue_mem node dec ~iaddr addr;
      node.counters.dyn_loads <- node.counters.dyn_loads + 1;
      if addr >= Shasta.Layout.shared_base then
        node.counters.dyn_loads_shared <- node.counters.dyn_loads_shared + 1;
      set_ireg node d (Memory.read_quad node.mem addr);
      true
    | Ldq_u (d, disp, b) ->
      let addr = (node.regs.(b) + disp) land lnot 7 in
      issue_mem node dec ~iaddr addr;
      set_ireg node d (Memory.read_quad node.mem addr);
      true
    | Extbl (d, ra, rb) ->
      issue node dec ~iaddr;
      set_ireg node d
        ((node.regs.(ra) asr (8 * (node.regs.(rb) land 7))) land 0xFF);
      true
    | Stl (r, disp, b) ->
      let addr = node.regs.(b) + disp in
      issue_mem node dec ~iaddr addr;
      Memory.write_long_u node.mem addr (node.regs.(r) land 0xFFFFFFFF);
      true
    | Stq (r, disp, b) ->
      let addr = node.regs.(b) + disp in
      issue_mem node dec ~iaddr addr;
      node.counters.dyn_stores <- node.counters.dyn_stores + 1;
      if addr >= Shasta.Layout.shared_base then
        node.counters.dyn_stores_shared <- node.counters.dyn_stores_shared + 1;
      Memory.write_quad node.mem addr node.regs.(r);
      true
    | Ldt (f, disp, b) ->
      let addr = node.regs.(b) + disp in
      issue_mem node dec ~iaddr addr;
      node.counters.dyn_loads <- node.counters.dyn_loads + 1;
      if addr >= Shasta.Layout.shared_base then
        node.counters.dyn_loads_shared <- node.counters.dyn_loads_shared + 1;
      (* straight into the register file, unboxed; f31 stays zero but
         the access still happens *)
      if f = Reg.fzero then ignore (Memory.read_float node.mem addr)
      else Memory.load_float node.mem addr node.fregs f;
      true
    | Stt (f, disp, b) ->
      let addr = node.regs.(b) + disp in
      issue_mem node dec ~iaddr addr;
      node.counters.dyn_stores <- node.counters.dyn_stores + 1;
      if addr >= Shasta.Layout.shared_base then
        node.counters.dyn_stores_shared <- node.counters.dyn_stores_shared + 1;
      Memory.store_float node.mem addr node.fregs f;
      true
    | Cvtqt (r, fd) ->
      issue node dec ~iaddr;
      set_freg node fd (float_of_int node.regs.(r));
      true
    | Cvttq (f, d) ->
      issue node dec ~iaddr;
      set_ireg node d (int_of_float node.fregs.(f));
      true
    | Fmov (fd, fs) ->
      issue node dec ~iaddr;
      set_freg node fd node.fregs.(fs);
      true
    | Br _ ->
      branch node dec ~iaddr ~idx true fp.target.(idx);
      true
    | Bc (c, r, _) ->
      branch node dec ~iaddr ~idx (eval_cond c node.regs.(r)) fp.target.(idx);
      true
    | Fbeq (f, _) ->
      branch node dec ~iaddr ~idx (node.fregs.(f) = 0.0) fp.target.(idx);
      true
    | Fbne (f, _) ->
      branch node dec ~iaddr ~idx (node.fregs.(f) <> 0.0) fp.target.(idx);
      true
    | Jsr _ ->
      issue node dec ~iaddr;
      node.call_stack <- (node.pc_proc, idx + 1) :: node.call_stack;
      node.pc_proc <- fp.callee.(idx);
      node.pc_idx <- 0;
      true
    | Ret ->
      issue node dec ~iaddr;
      (match node.call_stack with
       | [] -> finish state node
       | (p, i) :: rest ->
         node.call_stack <- rest;
         node.pc_proc <- p;
         node.pc_idx <- i);
      true
    | Poll ->
      Engine.poll state node;
      false
    | Call_load_miss { base; disp; refill } ->
      let addr = node.regs.(base) + disp in
      Engine.load_miss state node ~addr ~refill:(refill_of node ~addr refill);
      false
    | Call_store_miss { base; disp; ssize; store_done } ->
      let addr = node.regs.(base) + disp in
      let bytes = match ssize with Insn.Long -> 4 | Insn.Quad -> 8 in
      (* A non-scheduled store executes only after the handler
         returns; capture its effect so the engine can make it
         visible at wake time, before serving queued requests (on
         a real processor the handler's return and the store are
         back-to-back instructions nothing can interleave). *)
      (if not store_done then
         let rec find i =
           if i >= Array.length fp.code then fun () -> ()
           else
             match fp.code.(i) with
             | Lab _ -> find (i + 1)
             | Stl (r, d, b) ->
               fun () ->
                 Memory.write_long_u node.mem
                   (node.regs.(b) + d)
                   (node.regs.(r) land 0xFFFFFFFF)
             | Stq (r, d, b) ->
               fun () ->
                 Memory.write_quad node.mem (node.regs.(b) + d) node.regs.(r)
             | Stt (f, d, b) ->
               fun () ->
                 Memory.write_float node.mem (node.regs.(b) + d) node.fregs.(f)
             | _ -> fun () -> ()
         in
         node.commit_store <- find node.pc_idx);
      Engine.store_miss state node ~addr ~bytes ~store_done;
      false
    | Call_batch_miss { ranges } ->
      let accesses =
        List.concat_map
          (fun (r : Insn.range) ->
            let base_val = node.regs.(r.rbase) in
            List.map
              (fun (a : Insn.access) ->
                ( base_val + a.disp,
                  (match a.asize with Insn.Long -> 4 | Insn.Quad -> 8),
                  a.is_store ))
              r.accesses)
          ranges
      in
      Engine.batch_miss state node ~nranges:(List.length ranges) ~accesses;
      false
    | Batch_end ->
      if node.in_batch then begin
        Engine.batch_end state node;
        false
      end
      else true
    | Rt_call rt ->
      (match rt with
       | Malloc { size; bsize; dest } ->
         let ptr =
           Alloc.g_malloc state node ~size:node.regs.(size)
             ~bsize_req:node.regs.(bsize)
         in
         set_ireg node dest ptr
       | Malloc_priv { size; dest } ->
         let ptr = Alloc.p_malloc state node ~size:node.regs.(size) in
         set_ireg node dest ptr
       | Lock r -> Engine.rt_lock state node node.regs.(r)
       | Unlock r -> Engine.rt_unlock state node node.regs.(r)
       | Barrier -> Engine.rt_barrier state node
       | Flag_set r -> Engine.rt_flag_set state node node.regs.(r)
       | Flag_wait r -> Engine.rt_flag_wait state node node.regs.(r)
       | Print_int r ->
         Buffer.add_string state.State.output
           (string_of_int node.regs.(r) ^ "\n")
       | Print_float f ->
         Buffer.add_string state.State.output
           (Printf.sprintf "%.6g\n" node.fregs.(f))
       | Rdcycle d -> set_ireg node d (Node.time node)
       | Exit_thread -> finish state node);
      false
  end

(* Execute [node] until it yields.  [fuel] bounds the loop iterations
   run before control returns to the scheduler even without
   interaction.  What the node yields follows from its status. *)
let run state (node : Node.t) ~fuel =
  let image = state.State.image in
  let fuel = ref fuel in
  let running = ref true in
  (try
     while !running do
       (match node.status with
        | Node.Finished | Node.Crashed | Node.Waiting _ -> running := false
        | Node.Running -> running := step state image node);
       decr fuel;
       if !fuel <= 0 then running := false
     done
   with
   | Invalid_argument m | Failure m ->
     raise
       (Sim_error
          (Printf.sprintf "node %d at %s+%d: %s" node.id
             image.Image.fprocs.(node.pc_proc).fname node.pc_idx m)));
  match node.status with
  | Node.Finished | Node.Crashed -> Y_done
  | Node.Waiting _ -> Y_blocked
  | Node.Running -> Y_running

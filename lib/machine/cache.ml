(* Direct-mapped cache models.

   The dynamic overheads of Table 2 include hardware cache misses caused
   by the check code itself — in particular state-table misses on store
   checks (Section 3.3 motivates the exclusive table by the 8x density
   difference) and extra I-cache pressure from the inserted code.  A
   simple direct-mapped tag model reproduces those effects.  Writeback
   traffic is not costed (dirty evictions are counted but charged the
   same as clean fills); this second-order effect does not change any of
   the shapes the paper reports. *)

type t = {
  cname : string;
  line_bytes : int;
  nsets : int;
  line_shift : int; (* log2 line_bytes *)
  set_mask : int; (* nsets - 1 *)
  tags : int array; (* -1 = empty *)
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

(* Power-of-two geometry only, so a probe indexes with a shift and a
   mask instead of two divisions. *)
let create ~name ~size_bytes ~line_bytes =
  if not (is_pow2 line_bytes && is_pow2 size_bytes && size_bytes >= line_bytes)
  then invalid_arg "Cache.create: size and line must be powers of two";
  let nsets = size_bytes / line_bytes in
  { cname = name; line_bytes; nsets; line_shift = log2 line_bytes;
    set_mask = nsets - 1; tags = Array.make nsets (-1); hits = 0; misses = 0 }

let reset t =
  Array.fill t.tags 0 t.nsets (-1);
  t.hits <- 0;
  t.misses <- 0

(* Probe and fill.  Returns true on hit. *)
let access t addr =
  let block = addr lsr t.line_shift in
  let set = block land t.set_mask in
  if t.tags.(set) = block then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    t.tags.(set) <- block;
    false
  end

(* Invalidate every line of the cache that overlaps [addr, addr+len).
   Used when protocol handlers rewrite memory behind the processor's
   back (data replies, flag writes): the next program access must pay
   the miss the real machine would pay. *)
let invalidate_range t ~addr ~len =
  let first = addr lsr t.line_shift
  and last = (addr + len - 1) lsr t.line_shift in
  for block = first to last do
    let set = block land t.set_mask in
    if t.tags.(set) = block then t.tags.(set) <- -1
  done

type hierarchy = {
  l1i : t;
  l1d : t;
  l2 : t;
  l1_miss_cycles : int; (* L1 miss, L2 hit *)
  l2_miss_cycles : int; (* L2 miss, memory fill *)
  (* observability tap: called with the missing cache on every miss;
     wired to the metrics registry by the cluster, no-op by default *)
  mutable on_miss : t -> unit;
}

(* Cache geometry of the evaluation platform: 16 KB on-chip I and D
   caches, 4 MB off-chip second-level cache (Section 5.2). *)
let alpha_hierarchy () =
  { l1i = create ~name:"l1i" ~size_bytes:(16 * 1024) ~line_bytes:32;
    l1d = create ~name:"l1d" ~size_bytes:(16 * 1024) ~line_bytes:32;
    l2 = create ~name:"l2" ~size_bytes:(4 * 1024 * 1024) ~line_bytes:64;
    l1_miss_cycles = 10;
    l2_miss_cycles = 50;
    on_miss = ignore }

let reset_hierarchy h =
  reset h.l1i;
  reset h.l1d;
  reset h.l2

(* Extra cycles for a data access. *)
let daccess h addr =
  if access h.l1d addr then 0
  else begin
    h.on_miss h.l1d;
    if access h.l2 addr then h.l1_miss_cycles
    else begin
      h.on_miss h.l2;
      h.l1_miss_cycles + h.l2_miss_cycles
    end
  end

(* Extra cycles for an instruction fetch. *)
let iaccess h addr =
  if access h.l1i addr then 0
  else begin
    h.on_miss h.l1i;
    if access h.l2 addr then h.l1_miss_cycles
    else begin
      h.on_miss h.l2;
      h.l1_miss_cycles + h.l2_miss_cycles
    end
  end

let dinvalidate h ~addr ~len =
  invalidate_range h.l1d ~addr ~len;
  invalidate_range h.l2 ~addr ~len

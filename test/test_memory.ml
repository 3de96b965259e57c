(* Memory model tests: longword/quadword/byte aliasing, sign extension,
   float bit patterns, the flag value, page copying, plus cache model
   behaviour. *)

open Shasta_machine

let t_long_roundtrip () =
  let m = Memory.create () in
  Memory.write_long_u m 0x1000 0xDEADBEEF;
  Alcotest.(check int) "unsigned read" 0xDEADBEEF (Memory.read_long_u m 0x1000);
  Alcotest.(check int) "signed read" (0xDEADBEEF - 0x1_0000_0000)
    (Memory.read_long m 0x1000);
  Memory.write_long_u m 0x1004 0x7FFFFFFF;
  Alcotest.(check int) "positive signed" 0x7FFFFFFF (Memory.read_long m 0x1004)

let t_quad_longword_aliasing () =
  let m = Memory.create () in
  Memory.write_quad m 0x2000 0x11223344_55667788;
  Alcotest.(check int) "low longword" 0x55667788 (Memory.read_long_u m 0x2000);
  Alcotest.(check int) "high longword" 0x11223344 (Memory.read_long_u m 0x2004);
  Memory.write_long_u m 0x2000 0xAAAAAAAA;
  Alcotest.(check int) "quad sees longword write"
    0x11223344_AAAAAAAA (Memory.read_quad m 0x2000)

let t_negative_quad () =
  let m = Memory.create () in
  Memory.write_quad m 0x3000 (-42);
  Alcotest.(check int) "negative roundtrip" (-42) (Memory.read_quad m 0x3000);
  Memory.write_quad m 0x3008 (-1);
  Alcotest.(check int) "low pattern all ones" 0xFFFFFFFF
    (Memory.read_long_u m 0x3008)

let t_bytes () =
  let m = Memory.create () in
  Memory.write_byte m 0x4001 0xAB;
  Alcotest.(check int) "byte read" 0xAB (Memory.read_byte m 0x4001);
  Alcotest.(check int) "neighbours untouched" 0 (Memory.read_byte m 0x4000);
  Alcotest.(check int) "in longword" 0xAB00 (Memory.read_long_u m 0x4000);
  Memory.write_byte m 0x4001 0x01;
  Alcotest.(check int) "byte overwrite" 0x0100 (Memory.read_long_u m 0x4000)

let t_floats () =
  let m = Memory.create () in
  List.iter
    (fun x ->
      Memory.write_float m 0x5000 x;
      Alcotest.(check (float 0.0)) "float roundtrip" x
        (Memory.read_float m 0x5000))
    [ 0.0; 1.5; -3.25; 1e300; -1e-300; Float.pi ]

let t_flag_longword () =
  let m = Memory.create () in
  Memory.write_long_u m 0x6000 Shasta.Layout.flag_pattern;
  Alcotest.(check int) "flag reads as -253" (-253) (Memory.read_long m 0x6000);
  (* a quadword load of a fully flagged region: low longword drives the
     addl-based check *)
  Memory.write_long_u m 0x6004 Shasta.Layout.flag_pattern;
  let q = Memory.read_quad m 0x6000 in
  Alcotest.(check int) "quad low 32 bits are the flag" 0
    ((q + 253) land 0xFFFFFFFF)

let t_unaligned_rejected () =
  let m = Memory.create () in
  Alcotest.check_raises "unaligned longword"
    (Invalid_argument "Memory: unaligned longword access at 0x1001")
    (fun () -> ignore (Memory.read_long_u m 0x1001));
  Alcotest.check_raises "unaligned quadword"
    (Invalid_argument "Memory: unaligned quadword access at 0x1004")
    (fun () -> ignore (Memory.read_quad m 0x1004))

let t_ldq_u_alignment () =
  let m = Memory.create () in
  Memory.write_quad m 0x7000 12345;
  Alcotest.(check int) "ldq_u ignores low bits" 12345
    (Memory.read_quad_unaligned m 0x7003)

let t_copy_pages () =
  let src = Memory.create () and dst = Memory.create () in
  Memory.write_quad src 0x10000 111;
  Memory.write_quad src 0x18000 222;
  Memory.write_quad src 0x40000 333;
  Memory.copy_pages ~src ~dst ~addr:0x10000 ~len:0x10000;
  Alcotest.(check int) "first page copied" 111 (Memory.read_quad dst 0x10000);
  Alcotest.(check int) "second page copied" 222 (Memory.read_quad dst 0x18000);
  Alcotest.(check int) "outside range untouched" 0
    (Memory.read_quad dst 0x40000)

(* [fill_bytes] against a [write_byte] loop on a separate memory, over
   ranges that start and end at every longword offset around page
   boundaries, on top of pre-existing data. *)
let t_fill_bytes () =
  let pb = Memory.page_bytes in
  let ranges =
    [ (0, pb); (pb, 3 * pb); (pb - 3, 7); (pb - 2, pb + 5); (5, 2);
      (6, 1); ((2 * pb) + 4, 4); (pb + 1, (2 * pb) - 2); (17, 0) ]
  in
  List.iter
    (fun (addr, len) ->
      let fast = Memory.create () and slow = Memory.create () in
      List.iter
        (fun m ->
          Memory.write_long_u m (pb + 4) 0xDEADBEEF;
          Memory.write_long_u m ((addr land lnot 3) + 0) 0x01020304)
        [ fast; slow ];
      Memory.fill_bytes fast ~addr ~len 0xA5;
      for a = addr to addr + len - 1 do
        Memory.write_byte slow a 0xA5
      done;
      let what = Printf.sprintf "fill 0x%x+%d" addr len in
      Alcotest.(check int) (what ^ ": pages")
        (Memory.allocated_bytes slow) (Memory.allocated_bytes fast);
      for k = 0 to (4 * pb / 4) - 1 do
        Alcotest.(check int) what
          (Memory.read_long_u slow (4 * k))
          (Memory.read_long_u fast (4 * k))
      done)
    ranges

let t_blit () =
  let m = Memory.create () in
  Memory.blit_in m ~addr:0x8000 [| 1; 2; 3; 4 |];
  Alcotest.(check (array int)) "blit roundtrip" [| 1; 2; 3; 4 |]
    (Memory.blit_out m ~addr:0x8000 ~nlongs:4)

(* Random interleavings of word, float and bulk operations over two
   memories against a per-byte model.  Addresses cluster on three pages
   (two adjacent, one apart) so consecutive accesses ping-pong between
   pages: a last-page cache left stale by a bulk operation, or a page
   replaced behind it, shows up as a wrong read. *)
type mem_op =
  | Wq of int * int * int (* memory, address, value *)
  | Rl of int * int
  | Wf of int * int * float
  | Rf of int * int
  | Fill of int * int * int * int (* memory, address, length, byte *)
  | Copy of int * int * int (* destination memory, first page, pages *)

let show_op = function
  | Wq (m, a, v) -> Printf.sprintf "m%d.write_quad 0x%x %d" m a v
  | Rl (m, a) -> Printf.sprintf "m%d.read_long 0x%x" m a
  | Wf (m, a, v) -> Printf.sprintf "m%d.write_float 0x%x %h" m a v
  | Rf (m, a) -> Printf.sprintf "m%d.read_float 0x%x" m a
  | Fill (m, a, len, v) -> Printf.sprintf "m%d.fill 0x%x+%d %d" m a len v
  | Copy (m, p, n) -> Printf.sprintf "copy into m%d pages %d+%d" m p n

let mem_op_gen =
  let open QCheck2.Gen in
  let pb = Memory.page_bytes in
  let pages = [| 0; 1; 5 |] in
  let addr align =
    let off =
      oneof
        [ int_bound 3; int_bound ((pb / align) - 1);
          map (fun k -> (pb / align) - 1 - k) (int_bound 3) ]
    in
    map2 (fun p o -> (pages.(p) * pb) + (o * align)) (int_bound 2) off
  in
  let mem = int_bound 1 in
  oneof
    [ map3 (fun m a v -> Wq (m, a, v)) mem (addr 8) int;
      map2 (fun m a -> Rl (m, a)) mem (addr 4);
      map3 (fun m a v -> Wf (m, a, v)) mem (addr 8) float;
      map2 (fun m a -> Rf (m, a)) mem (addr 8);
      map2
        (fun (m, a) (len, v) -> Fill (m, a, len, v))
        (pair mem (addr 1))
        (pair (oneof [ int_bound 16; int_bound ((2 * pb) + 16) ]) (int_bound 255));
      (* fills that end on a page boundary touch no page after their
         last whole one, so the cache still holds what it held before *)
      map3
        (fun (m, a) extra v -> Fill (m, a, pb - (a mod pb) + (extra * pb), v))
        (pair mem (addr 1)) (int_bound 1) (int_bound 255);
      map3 (fun m p n -> Copy (m, pages.(p), n)) mem (int_bound 2) (int_range 1 3) ]

let prop_memory_ops ops =
  let pb = Memory.page_bytes in
  let mems = [| Memory.create (); Memory.create () |] in
  (* the model: materialized pages of plain bytes, per memory *)
  let model = [| Hashtbl.create 8; Hashtbl.create 8 |] in
  let page m a =
    let q = a / pb in
    match Hashtbl.find_opt model.(m) q with
    | Some p -> p
    | None ->
      let p = Bytes.make pb '\000' in
      Hashtbl.add model.(m) q p;
      p
  in
  let get m a = Char.code (Bytes.get (page m a) (a mod pb)) in
  let set m a v = Bytes.set (page m a) (a mod pb) (Char.chr (v land 0xFF)) in
  let long m a =
    get m a lor (get m (a + 1) lsl 8) lor (get m (a + 2) lsl 16)
    lor (get m (a + 3) lsl 24)
  in
  let bits m a =
    Int64.logor (Int64.shift_left (Int64.of_int (long m (a + 4))) 32)
      (Int64.of_int (long m a))
  in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | Wq (m, a, v) ->
        Memory.write_quad mems.(m) a v;
        for k = 0 to 7 do set m (a + k) (v asr (8 * k)) done
      | Rl (m, a) ->
        if Memory.read_long mems.(m) a <> Memory.sext32 (long m a) then
          ok := false
      | Wf (m, a, v) ->
        Memory.write_float mems.(m) a v;
        let b = Int64.bits_of_float v in
        for k = 0 to 7 do
          set m (a + k) (Int64.to_int (Int64.shift_right_logical b (8 * k)))
        done
      | Rf (m, a) ->
        let got = Int64.bits_of_float (Memory.read_float mems.(m) a) in
        if not (Int64.equal got (bits m a)) then ok := false
      | Fill (m, a, len, v) ->
        Memory.fill_bytes mems.(m) ~addr:a ~len v;
        for b = a to a + len - 1 do set m b v done
      | Copy (dst, p, n) ->
        let src = 1 - dst in
        Memory.copy_pages ~src:mems.(src) ~dst:mems.(dst) ~addr:(p * pb)
          ~len:(n * pb);
        for q = p to p + n - 1 do
          match Hashtbl.find_opt model.(src) q with
          | Some pg -> Hashtbl.replace model.(dst) q (Bytes.copy pg)
          | None -> ()
        done)
    ops;
  (* the page count, and every longword of every materialized page *)
  !ok
  && Array.for_all Fun.id
       (Array.mapi
          (fun m mem ->
            Memory.allocated_bytes mem = Hashtbl.length model.(m) * pb
            && Hashtbl.fold
                 (fun q _ acc ->
                   acc
                   && List.for_all
                        (fun k ->
                          let a = (q * pb) + (4 * k) in
                          Memory.read_long_u mem a = long m a)
                        (List.init (pb / 4) Fun.id))
                 model.(m) true)
          mems)

let t_memory_ops =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"interleaved ops match a per-byte model" ~count:300
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 60) mem_op_gen)
       prop_memory_ops)

(* --- caches --- *)

let t_cache_basics () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:32 in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Cache.access c 16);
  Alcotest.(check bool) "next line misses" false (Cache.access c 32);
  (* direct-mapped conflict: 0 and 1024 map to the same set *)
  Alcotest.(check bool) "conflict evicts" false (Cache.access c 1024);
  Alcotest.(check bool) "original evicted" false (Cache.access c 0)

let t_cache_invalidate () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:32 in
  ignore (Cache.access c 64);
  Cache.invalidate_range c ~addr:64 ~len:4;
  Alcotest.(check bool) "invalidated line misses" false (Cache.access c 64)

let t_cache_geometry () =
  List.iter
    (fun (size_bytes, line_bytes) ->
      match Cache.create ~name:"t" ~size_bytes ~line_bytes with
      | _ ->
        Alcotest.failf "accepted %d bytes in %d-byte lines" size_bytes line_bytes
      | exception Invalid_argument _ -> ())
    [ (1000, 8); (1024, 24); (3 * 1024, 32); (16, 32); (0, 32); (1024, 0) ];
  let c = Cache.create ~name:"t" ~size_bytes:2048 ~line_bytes:64 in
  Alcotest.(check int) "sets" 32 c.nsets

let t_hierarchy () =
  let h = Cache.alpha_hierarchy () in
  let first = Cache.daccess h 0x1000 in
  Alcotest.(check bool) "cold access costs" true (first > 0);
  Alcotest.(check int) "warm access free" 0 (Cache.daccess h 0x1000);
  (* L2 hit after L1 conflict eviction costs the L1 penalty only *)
  ignore (Cache.daccess h (0x1000 + (16 * 1024)));
  Alcotest.(check int) "l2 hit penalty" h.l1_miss_cycles
    (Cache.daccess h 0x1000)

let () =
  Alcotest.run "memory"
    [ ( "memory",
        [ Alcotest.test_case "longwords" `Quick t_long_roundtrip;
          Alcotest.test_case "quad aliasing" `Quick t_quad_longword_aliasing;
          Alcotest.test_case "negative quads" `Quick t_negative_quad;
          Alcotest.test_case "bytes" `Quick t_bytes;
          Alcotest.test_case "floats" `Quick t_floats;
          Alcotest.test_case "flag longword" `Quick t_flag_longword;
          Alcotest.test_case "alignment" `Quick t_unaligned_rejected;
          Alcotest.test_case "ldq_u" `Quick t_ldq_u_alignment;
          Alcotest.test_case "copy pages" `Quick t_copy_pages;
          Alcotest.test_case "fill bytes" `Quick t_fill_bytes;
          Alcotest.test_case "blit" `Quick t_blit;
          t_memory_ops ] );
      ( "cache",
        [ Alcotest.test_case "basics" `Quick t_cache_basics;
          Alcotest.test_case "invalidate" `Quick t_cache_invalidate;
          Alcotest.test_case "power-of-two geometry" `Quick t_cache_geometry;
          Alcotest.test_case "hierarchy" `Quick t_hierarchy ] )
    ]

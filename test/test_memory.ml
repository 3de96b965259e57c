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
          Alcotest.test_case "blit" `Quick t_blit ] );
      ( "cache",
        [ Alcotest.test_case "basics" `Quick t_cache_basics;
          Alcotest.test_case "invalidate" `Quick t_cache_invalidate;
          Alcotest.test_case "hierarchy" `Quick t_hierarchy ] )
    ]

(* Binary visited-state keys: see key.mli. *)

(* Unsigned LEB128: seven bits per byte, high bit set on all but the
   last.  [u] is read as an unsigned 63-bit word ([lsr] shifts in
   zeros), so the loop ends for every input. *)
let rec uvarint b u =
  if u land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr u)
  else begin
    Buffer.add_char b (Char.unsafe_chr (u land 0x7f lor 0x80));
    uvarint b (u lsr 7)
  end

(* zigzag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ... (a bijection on ints) *)
let int b n = uvarint b ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let bool b x = Buffer.add_char b (if x then '\001' else '\000')

let list f b l =
  int b (List.length l);
  List.iter (f b) l

let option f b = function
  | None -> bool b false
  | Some x ->
    bool b true;
    f b x

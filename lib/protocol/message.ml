(* Protocol message types (Sections 2.1 and 4 of the paper).

   Design points carried over from the paper:
   - three request types: read, read-exclusive and exclusive (upgrade);
   - all directory state changes complete when a request first reaches
     the home, so there are no confirmation messages back to the home;
   - the number of invalidation acknowledgements a requester should
     expect is piggybacked on the data/upgrade reply rather than sent
     separately, and sharers acknowledge directly to the requester;
   - synchronization (locks, barriers, event flags) is message-based. *)

type coherence =
  | Read_req (* requester -> home *)
  | Readex_req
  | Upgrade_req
  | Fwd_read of { requester : int } (* home -> owner *)
  | Fwd_readex of { requester : int; acks : int }
  | Data_reply of { data : int array; exclusive : bool; acks : int }
    (* owner/home -> requester; [data] holds the block's longwords *)
  | Upgrade_ack of { acks : int } (* home -> requester *)
  | Inv of { requester : int }
    (* home -> sharer; [addr] names the block; ack goes to [requester] *)
  | Inv_ack (* sharer -> requester *)

type sync =
  | Lock_req
  | Lock_grant
  | Unlock_msg
  | Barrier_arrive
  | Barrier_release
  | Flag_set_msg
  | Flag_wait_req
  | Flag_wake

type kind = Coh of coherence | Sync of sync

type t = {
  src : int;
  addr : int; (* block base address, or lock/barrier/flag id for Sync *)
  kind : kind;
}

(* Payload size in longwords, used by the network cost model.  Control
   messages are small; data replies carry the block. *)
let payload_longs m =
  match m.kind with
  | Coh (Data_reply { data; _ }) -> 4 + Array.length data
  | _ -> 4

(* Short, stable kind name — the label typed observability events and
   trace tracks carry. *)
let kind_name m =
  match m.kind with
  | Coh Read_req -> "read_req"
  | Coh Readex_req -> "readex_req"
  | Coh Upgrade_req -> "upgrade_req"
  | Coh (Fwd_read _) -> "fwd_read"
  | Coh (Fwd_readex _) -> "fwd_readex"
  | Coh (Data_reply _) -> "data_reply"
  | Coh (Upgrade_ack _) -> "upgrade_ack"
  | Coh (Inv _) -> "inv"
  | Coh Inv_ack -> "inv_ack"
  | Sync Lock_req -> "lock_req"
  | Sync Lock_grant -> "lock_grant"
  | Sync Unlock_msg -> "unlock"
  | Sync Barrier_arrive -> "barrier_arrive"
  | Sync Barrier_release -> "barrier_release"
  | Sync Flag_set_msg -> "flag_set"
  | Sync Flag_wait_req -> "flag_wait"
  | Sync Flag_wake -> "flag_wake"

let describe m =
  let k =
    match m.kind with
    | Coh (Fwd_read { requester }) -> Printf.sprintf "fwd_read(r%d)" requester
    | Coh (Fwd_readex { requester; acks }) ->
      Printf.sprintf "fwd_readex(r%d,a%d)" requester acks
    | Coh (Data_reply { exclusive; acks; data }) ->
      Printf.sprintf "data_reply(%s,a%d,%dB)"
        (if exclusive then "excl" else "shared")
        acks
        (4 * Array.length data)
    | Coh (Upgrade_ack { acks }) -> Printf.sprintf "upgrade_ack(a%d)" acks
    | Coh (Inv { requester }) -> Printf.sprintf "inv(ack->%d)" requester
    | _ -> kind_name m
  in
  Printf.sprintf "[%d] %s @0x%x" m.src k m.addr

(* Exact binary key (see Key): a tag per kind, then every field —
   unlike [describe], a data reply's payload is written by value. *)
let encode b { src; addr; kind } =
  Key.int b src;
  Key.int b addr;
  match kind with
  | Coh Read_req -> Key.int b 0
  | Coh Readex_req -> Key.int b 1
  | Coh Upgrade_req -> Key.int b 2
  | Coh (Fwd_read { requester }) ->
    Key.int b 3;
    Key.int b requester
  | Coh (Fwd_readex { requester; acks }) ->
    Key.int b 4;
    Key.int b requester;
    Key.int b acks
  | Coh (Data_reply { data; exclusive; acks }) ->
    Key.int b 5;
    Key.int b (Array.length data);
    Array.iter (Key.int b) data;
    Key.bool b exclusive;
    Key.int b acks
  | Coh (Upgrade_ack { acks }) ->
    Key.int b 6;
    Key.int b acks
  | Coh (Inv { requester }) ->
    Key.int b 7;
    Key.int b requester
  | Coh Inv_ack -> Key.int b 8
  | Sync Lock_req -> Key.int b 9
  | Sync Lock_grant -> Key.int b 10
  | Sync Unlock_msg -> Key.int b 11
  | Sync Barrier_arrive -> Key.int b 12
  | Sync Barrier_release -> Key.int b 13
  | Sync Flag_set_msg -> Key.int b 14
  | Sync Flag_wait_req -> Key.int b 15
  | Sync Flag_wake -> Key.int b 16

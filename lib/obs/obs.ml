(* Observability facade: one value the whole runtime reports into.

   [emit] is the single entry point: it folds the event into the
   metrics registry (always on — plain integer bumps) and fans it out
   to the attached sinks (none attached means no work beyond the
   registry update).  Hot paths that only need a counter and have no
   event worth streaming use [count_local]/[observe_fanout]. *)

module Event = Event
module Metrics = Metrics
module Sink = Sink
module Profile = Profile
module Perf = Perf
module Benchjson = Benchjson

(* Counter names, fixed here so that every layer and every consumer
   (CLI tables, bench, tests) agrees on them. *)
let c_msg_sent = "msg.sent"
let c_msg_recv = "msg.recv"

(* Same-node deliveries: the engine's local fast path never reaches the
   network taps, so without this counter local protocol traffic would be
   invisible in the registry. *)
let c_msg_local = "msg.local"
let c_miss_read = "miss.read"
let c_miss_write = "miss.write"
let c_miss_upgrade = "miss.upgrade"
let c_miss_false = "miss.false"
let c_miss_batch = "miss.batch"
let c_invals = "protocol.invalidations"
let c_downgrades = "protocol.downgrades"
let c_store_reissues = "protocol.store_reissues"
let c_stalls = "stall.count"
let c_locks = "sync.lock_acquires"
let c_barriers = "sync.barriers"
let c_flag_sets = "sync.flag_sets"
let c_flag_wakes = "sync.flag_wakes"
let c_polls = "runtime.polls"
let c_finished = "runtime.threads_finished"
let c_spans = "span.matched"

(* Fault-layer activity under --net-faults: dropped transmission
   attempts, discarded duplicate arrivals, retransmissions (== drops:
   every dropped attempt is retransmitted), resequenced reorderings,
   and total cycles spent waiting out retransmission timeouts. *)
let c_net_drop = "net.drop"
let c_net_dup = "net.dup"
let c_net_retx = "net.retx"
let c_net_reorder = "net.reorder"
let c_net_backoff = "net.backoff_cycles"
let c_net_timeout = "net.timeout"

(* Node-level fault tolerance under --node-faults: injected halts and
   restarts, lock/flag leases reclaimed from dead holders, and
   directory entries reconstructed from surviving sharer state.  The
   takeover/rebuild counters are the measurable cost of one recovery. *)
let c_node_crash = "node.crash"
let c_node_recover = "node.recover"
let c_lease_takeover = "lease.takeover"
let c_dir_rebuild = "dir.rebuild"

(* Progress pulses emitted under --progress N. *)
let c_heartbeat = "runtime.heartbeat"

(* Hot-page directory-home migrations under --home-policy migrate. *)
let c_home_migrate = "dir.home_migrate"

let h_payload = "msg.payload_longs"
let h_stall = "stall.cycles"
let h_miss_latency = "miss.latency_cycles"

(* Invalidation fan-out: sharers invalidated per directory-driven
   invalidation run — the distribution that separates the directory
   organizations (broadcast/coarse modes fan wider than full-map). *)
let h_fanout = "dir.fanout"

(* The registry cells [count_event] bumps, interned once per registry so
   the per-event cost is an array index, not a string hash.  A handle
   registers its metric on the first bump, exactly when the by-name
   call would have, so dumps are unchanged. *)
type cells = {
  msg_sent : Metrics.handle;
  msg_recv : Metrics.handle;
  msg_local : Metrics.handle;
  miss_read : Metrics.handle;
  miss_write : Metrics.handle;
  miss_upgrade : Metrics.handle;
  miss_false : Metrics.handle;
  miss_batch : Metrics.handle;
  invals : Metrics.handle;
  downgrades : Metrics.handle;
  store_reissues : Metrics.handle;
  stalls : Metrics.handle;
  locks : Metrics.handle;
  barriers : Metrics.handle;
  flag_sets : Metrics.handle;
  flag_wakes : Metrics.handle;
  finished : Metrics.handle;
  spans : Metrics.handle;
  net_drop : Metrics.handle;
  net_dup : Metrics.handle;
  net_retx : Metrics.handle;
  net_reorder : Metrics.handle;
  net_backoff : Metrics.handle;
  net_timeout : Metrics.handle;
  node_crash : Metrics.handle;
  node_recover : Metrics.handle;
  lease_takeover : Metrics.handle;
  dir_rebuild : Metrics.handle;
  heartbeat : Metrics.handle;
  home_migrate : Metrics.handle;
  payload : Metrics.hist_handle;
  stall : Metrics.hist_handle;
  miss_latency : Metrics.hist_handle;
  fanout : Metrics.hist_handle;
}

let cells m =
  let c = Metrics.handle m and h = Metrics.hist_handle m in
  { msg_sent = c c_msg_sent; msg_recv = c c_msg_recv;
    msg_local = c c_msg_local; miss_read = c c_miss_read;
    miss_write = c c_miss_write; miss_upgrade = c c_miss_upgrade;
    miss_false = c c_miss_false; miss_batch = c c_miss_batch;
    invals = c c_invals; downgrades = c c_downgrades;
    store_reissues = c c_store_reissues; stalls = c c_stalls;
    locks = c c_locks; barriers = c c_barriers; flag_sets = c c_flag_sets;
    flag_wakes = c c_flag_wakes; finished = c c_finished;
    spans = c c_spans; net_drop = c c_net_drop; net_dup = c c_net_dup;
    net_retx = c c_net_retx; net_reorder = c c_net_reorder;
    net_backoff = c c_net_backoff; net_timeout = c c_net_timeout;
    node_crash = c c_node_crash; node_recover = c c_node_recover;
    lease_takeover = c c_lease_takeover; dir_rebuild = c c_dir_rebuild;
    heartbeat = c c_heartbeat; home_migrate = c c_home_migrate;
    payload = h h_payload; stall = h h_stall;
    miss_latency = h h_miss_latency; fanout = h h_fanout }

type t = {
  metrics : Metrics.t;
  cells : cells;
  mutable sinks : Sink.t list;
  mutable profiler : Profile.t option;
}

let create ~nprocs () =
  let metrics = Metrics.create ~nprocs in
  { metrics; cells = cells metrics; sinks = []; profiler = None }

let metrics t = t.metrics

let attach t sink = t.sinks <- t.sinks @ [ sink ]

let attach_profiler t p = t.profiler <- Some p

let profiler t = t.profiler

let tracing t = t.sinks <> []

let flush t =
  (* drain the profiler's matched transactions into the sinks first, so
     a Chrome trace gets its async span tracks before the array closes;
     [Profile.drain_spans] is one-shot, so repeated flushes (which the
     sinks themselves also tolerate) add nothing twice *)
  (match t.profiler with
   | Some p when t.sinks <> [] ->
     List.iter
       (fun r -> List.iter (fun (s : Sink.t) -> s.on_record r) t.sinks)
       (Profile.drain_spans p)
   | _ -> ());
  List.iter Sink.flush t.sinks

let count_event t ~node (ev : Event.t) =
  let k = t.cells in
  match ev with
  | Msg_send { longs; _ } ->
    Metrics.bump k.msg_sent ~node;
    Metrics.record k.payload ~node longs
  | Msg_recv _ -> Metrics.bump k.msg_recv ~node
  | Miss { kind = Read; _ } -> Metrics.bump k.miss_read ~node
  | Miss { kind = Write; _ } -> Metrics.bump k.miss_write ~node
  | Miss { kind = Upgrade; _ } -> Metrics.bump k.miss_upgrade ~node
  | False_miss _ -> Metrics.bump k.miss_false ~node
  | Invalidated _ -> Metrics.bump k.invals ~node
  | Downgraded _ -> Metrics.bump k.downgrades ~node
  | Stall { reason; cycles; _ } ->
    Metrics.bump k.stalls ~node;
    Metrics.record k.stall ~node cycles;
    if String.equal reason "miss" then
      Metrics.record k.miss_latency ~node cycles
  | Lock_acquired _ -> Metrics.bump k.locks ~node
  | Barrier_passed -> Metrics.bump k.barriers ~node
  | Flag_raised _ -> Metrics.bump k.flag_sets ~node
  | Flag_woken _ -> Metrics.bump k.flag_wakes ~node
  | Batch_run _ -> Metrics.bump k.miss_batch ~node
  | Store_reissue _ -> Metrics.bump k.store_reissues ~node
  | Node_finished -> Metrics.bump k.finished ~node
  | Span _ -> Metrics.bump k.spans ~node
  | Net_fault { retx; backoff; duplicated; reordered; timed_out; _ } ->
    if retx > 0 then begin
      Metrics.bump_by k.net_drop ~node retx;
      Metrics.bump_by k.net_retx ~node retx;
      Metrics.bump_by k.net_backoff ~node backoff
    end;
    if duplicated then Metrics.bump k.net_dup ~node;
    if reordered then Metrics.bump k.net_reorder ~node;
    if timed_out then Metrics.bump k.net_timeout ~node
  | Node_crash _ -> Metrics.bump k.node_crash ~node
  | Node_recover _ -> Metrics.bump k.node_recover ~node
  | Lease_takeover _ -> Metrics.bump k.lease_takeover ~node
  | Dir_rebuild _ -> Metrics.bump k.dir_rebuild ~node
  | Heartbeat _ -> Metrics.bump k.heartbeat ~node
  | Home_migrated _ -> Metrics.bump k.home_migrate ~node

let emit t ?site ~node ~time ev =
  count_event t ~node ev;
  match (t.sinks, t.profiler) with
  | [], None -> ()
  | sinks, profiler ->
    let r = { Event.node; time; ev; site } in
    (match profiler with Some p -> Profile.feed p r | None -> ());
    List.iter (fun (s : Sink.t) -> s.on_record r) sinks

let count_local t ~node = Metrics.bump t.cells.msg_local ~node
let observe_fanout t ~node width = Metrics.record t.cells.fanout ~node width

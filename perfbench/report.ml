(* Per-layer metrics and the Table 2 print-out of a traced run, assembled
   from what the run observed in place (trace sides, engine health and
   totals, counters) and the isolated layer costs. *)

type observed = {
  workload : string;
  layers : Layers.t;
  sender : Trace.side;
  engine : Trace.side;
  shared_domain_wall_ns : int option;
      (** [Some wall] when both sides ran interleaved in one domain (virtual
          time): per-side wall time does not exist there, so the per-side
          self, allocation and reconciliation keys carry the domain's
          figure *)
  transfers : int;  (** verified transfers *)
  payload_bytes : int;  (** verified payload bytes *)
  attempted_bytes : int;  (** payload bytes of every attempt (each is CRC'd once) *)
  sender_counters : Protocol.Counters.t;  (** summed over verified transfers *)
  rollup : Protocol.Counters.t;  (** the engine's counter roll-up *)
  health : Server.Engine.health;
  totals : Server.Engine.totals;
  lingering_mean : float;
  handshake_us : float;  (** mean, [Peer.send] start to its first DATA *)
  injected_per_datagram : float;
  virtual_s_per_wall_s : float;
  violations : int;
  minor_collections : int;
  major_collections : int;
  overhead_share : float;
}

let f = float_of_int
let ratio = Metrics.ratio
let fratio = Metrics.fratio

let quantile h q = if Obs.Hist.count h = 0 then 0. else Obs.Hist.quantile h q
let mean h = if Obs.Hist.count h = 0 then 0. else Obs.Hist.mean h

type side_account = {
  datagrams : int;  (** sent (sender) or received (engine) *)
  wall_ns : float;
  self_ns : float;
  explained_ns : float;
  wait_ns : float;
  alloc_words : float;
}

let accounts o =
  let l = o.layers in
  let s = o.sender and e = o.engine in
  let sends_s = Trace.calls s Trace.Send and received_s = Trace.received s in
  let sends_e = Trace.calls e Trace.Send and received_e = Trace.received e in
  let sender_explained =
    (l.Layers.encode_ns *. f sends_s)
    +. (l.Layers.crc32_ns_per_byte *. f o.attempted_bytes)
    +. (l.Layers.ack_codec_ns /. 2. *. f received_s)
  in
  let engine_explained =
    ((l.Layers.decode_ns +. l.Layers.flow_ns_per_datagram) *. f received_e)
    +. (l.Layers.ack_codec_ns /. 2. *. f sends_e)
  in
  match o.shared_domain_wall_ns with
  | None ->
      let sender_wall = f (Trace.time_ns s Trace.Transfer) in
      let engine_wall = f e.Trace.wall_ns in
      ( {
          datagrams = sends_s;
          wall_ns = sender_wall;
          self_ns = sender_wall -. f (Trace.transport_ns s);
          explained_ns = sender_explained;
          wait_ns = f (Trace.wait_ns s);
          alloc_words = s.Trace.alloc_words;
        },
        {
          datagrams = received_e;
          wall_ns = engine_wall;
          self_ns = engine_wall -. f (Trace.transport_ns e);
          explained_ns = engine_explained;
          wait_ns = f (Trace.wait_ns e);
          alloc_words = e.Trace.alloc_words;
        } )
  | Some wall ->
      let both =
        {
          datagrams = sends_s + received_e;
          wall_ns = f wall;
          self_ns = f wall -. f (Trace.transport_ns s) -. f (Trace.transport_ns e);
          explained_ns = sender_explained +. engine_explained;
          wait_ns = 0.;
          alloc_words = s.Trace.alloc_words;
        }
      in
      (both, both)

let unattributed a = ratio (a.self_ns -. a.explained_ns) a.self_ns

let per_layer o =
  let l = o.layers in
  let s = o.sender and e = o.engine in
  let sa, ea = accounts o in
  let c = o.sender_counters and r = o.rollup in
  let h = o.health and t = o.totals in
  let flush_per side =
    ratio (f (Trace.time_ns side Trace.Flush)) (f (Trace.datagrams side Trace.Flush))
  in
  let train side = fratio (Trace.datagrams side Trace.Flush) side.Trace.tx_submissions in
  (* Under virtual time the engine's own tick histogram reads 0 (ticks take
     no virtual time); the wall time each engine wakeup worked is measured
     around its recvs instead. *)
  let tick q =
    match e.Trace.wakeup_work_ns with
    | [] -> quantile h.Server.Engine.tick_duration_ns (float_of_int q /. 100.) /. 1e3
    | ws -> Pct.percentile (Pct.sorted_copy (Array.of_list (List.map (fun ns -> f ns /. 1e3) ws))) q
  in
  let mib = f o.payload_bytes /. 1048576. in
  [
    ("packet.encode_ns", l.Layers.encode_ns);
    ("packet.decode_ns", l.Layers.decode_ns);
    ("packet.encode_alloc_words", l.Layers.encode_alloc_words);
    ("packet.decode_alloc_words", l.Layers.decode_alloc_words);
    ("packet.ack_codec_ns", l.Layers.ack_codec_ns);
    ("packet.crc32_ns_per_byte", l.Layers.crc32_ns_per_byte);
    ("protocol.retransmit_share", fratio c.Protocol.Counters.retransmitted_data c.Protocol.Counters.data_sent);
    ("protocol.rounds_per_transfer", fratio c.Protocol.Counters.rounds o.transfers);
    ("protocol.timeouts_per_transfer", fratio c.Protocol.Counters.timeouts o.transfers);
    ("protocol.nacks_per_transfer", fratio r.Protocol.Counters.nacks_sent t.Server.Engine.completed);
    ( "protocol.duplicates_share",
      fratio r.Protocol.Counters.duplicates_received
        (r.Protocol.Counters.delivered + r.Protocol.Counters.duplicates_received) );
    ("sockets.flow_ns_per_datagram", l.Layers.flow_ns_per_datagram);
    ("sockets.sender.flush_ns_per_datagram", flush_per s);
    ("sockets.engine.flush_ns_per_datagram", flush_per e);
    ("sockets.engine.poll_ns_per_datagram", Trace.rx_ns_per_datagram e);
    ("sockets.sender.datagrams_per_syscall", train s);
    ("sockets.engine.datagrams_per_syscall", train e);
    ("sockets.sender.wait_share", ratio sa.wait_ns sa.wall_ns);
    ("sockets.engine.wait_share", ratio ea.wait_ns ea.wall_ns);
    ("sockets.sender.self_ns_per_datagram", ratio sa.self_ns (f sa.datagrams));
    ("sockets.engine.self_ns_per_datagram", ratio ea.self_ns (f ea.datagrams));
    ("sockets.handshake_us", o.handshake_us);
    ("server.tick_p50_us", tick 50);
    ("server.tick_p99_us", tick 99);
    ("server.recv_drained_mean", mean h.Server.Engine.recv_drained);
    ("server.flush_train_mean", mean h.Server.Engine.flush_train);
    ("server.timer_heap_depth_p99", quantile h.Server.Engine.timer_heap_depth 0.99);
    ("server.drain_exhausted", f h.Server.Engine.drain_exhausted);
    ( "server.spurious_wakeups_per_transfer",
      fratio h.Server.Engine.spurious_wakeups t.Server.Engine.accepted );
    ("server.rejected_per_accepted", fratio t.Server.Engine.rejected t.Server.Engine.accepted);
    ("server.lingering_flows_mean", o.lingering_mean);
    ("server.timers_ns_per_op", l.Layers.timers_ns_per_op);
    ("faults.netem_ns_per_datagram", l.Layers.netem_ns_per_datagram);
    ("faults.injected_per_datagram", o.injected_per_datagram);
    ("dst.virtual_s_per_wall_s", o.virtual_s_per_wall_s);
    ("dst.violations", f o.violations);
    ("gc.sender.alloc_words_per_datagram", ratio sa.alloc_words (f sa.datagrams));
    ("gc.engine.alloc_words_per_datagram", ratio ea.alloc_words (f ea.datagrams));
    ("gc.minor_collections_per_mib", ratio (f o.minor_collections) mib);
    ("gc.major_collections", f o.major_collections);
    ("reconcile.sender.unattributed_share", unattributed sa);
    ("reconcile.engine.unattributed_share", unattributed ea);
    ("trace.overhead_share", o.overhead_share);
  ]

(* The paper's Table 2 breaks a 1 KB exchange into copy C, wire T, ack copy
   Ca and ack wire Ta. The same breakdown for one DATA datagram of this
   workload: each row is ns per DATA datagram sent, and its share of that
   side's wall time per DATA datagram. *)
let table2 o =
  let l = o.layers in
  let s = o.sender and e = o.engine in
  let sa, ea = accounts o in
  let n = f (max 1 s.Trace.data_sent) in
  let per x = x /. n in
  let b = Buffer.create 2048 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let row part side what ns wall =
    line "  %-3s %-7s %-38s %12.1f %7.1f%%" part side what (per ns) (100. *. ratio ns wall)
  in
  let transport side ops = List.fold_left (fun acc op -> acc +. f (Trace.time_ns side op)) 0. ops in
  let recv_cpu side = f (Trace.time_ns side Trace.Recv) -. f (Trace.wait_ns side) in
  let sender_unattr = sa.self_ns -. sa.explained_ns in
  let engine_unattr = ea.self_ns -. ea.explained_ns in
  line "Table 2 (%s): components of one %d-byte DATA datagram, %d DATA datagrams traced"
    o.workload
    (min 1024 (max 1 (o.payload_bytes / max 1 o.transfers)))
    s.Trace.data_sent;
  line "  %-3s %-7s %-38s %12s %8s" "" "side" "component" "ns/datagram" "share";
  (match o.shared_domain_wall_ns with
  | None ->
      row "C" "sender" "crc32, whole segment (at REQ)" (l.Layers.crc32_ns_per_byte *. f o.attempted_bytes) sa.wall_ns;
      row "C" "sender" "Codec.encode (incl. payload CRC)" (l.Layers.encode_ns *. f (Trace.calls s Trace.Send)) sa.wall_ns;
      row "Ca" "sender" "ack decode" (l.Layers.ack_codec_ns /. 2. *. f (Trace.received s)) sa.wall_ns;
      row "C" "sender" "sender self, unattributed" sender_unattr sa.wall_ns;
      row "T" "sender" "send + flush syscalls" (transport s [ Trace.Send; Trace.Flush ]) sa.wall_ns;
      row "Ta" "sender" "recv syscall (on CPU)" (recv_cpu s) sa.wall_ns;
      row "Ta" "sender" "waiting for acks" sa.wait_ns sa.wall_ns;
      line "  %-3s %-7s %-38s %12.1f %7.1f%%" "=" "sender" "wall per DATA datagram" (per sa.wall_ns) 100.;
      row "T" "engine" "poll + recv syscalls (on CPU)" (transport e [ Trace.Poll ] +. recv_cpu e) ea.wall_ns;
      row "C" "engine" "Codec.decode (incl. payload CRC)" (l.Layers.decode_ns *. f (Trace.received e)) ea.wall_ns;
      row "C" "engine" "Flow step (incl. end-to-end CRC)" (l.Layers.flow_ns_per_datagram *. f (Trace.received e)) ea.wall_ns;
      row "Ca" "engine" "ack encode" (l.Layers.ack_codec_ns /. 2. *. f (Trace.calls e Trace.Send)) ea.wall_ns;
      row "C" "engine" "engine self, unattributed" engine_unattr ea.wall_ns;
      row "Ta" "engine" "send + flush syscalls" (transport e [ Trace.Send; Trace.Flush ]) ea.wall_ns;
      row "" "engine" "idle, waiting for datagrams" ea.wait_ns ea.wall_ns;
      line "  %-3s %-7s %-38s %12.1f %7.1f%%" "=" "engine" "wall per DATA datagram" (per ea.wall_ns) 100.
  | Some wall ->
      let wall = f wall in
      row "C" "both" "crc32, whole segment (at REQ)" (l.Layers.crc32_ns_per_byte *. f o.attempted_bytes) wall;
      row "C" "both" "Codec.encode (sender, incl. payload CRC)" (l.Layers.encode_ns *. f (Trace.calls s Trace.Send)) wall;
      row "C" "both" "Codec.decode (engine, incl. payload CRC)" (l.Layers.decode_ns *. f (Trace.received e)) wall;
      row "C" "both" "Flow step (incl. end-to-end CRC)" (l.Layers.flow_ns_per_datagram *. f (Trace.received e)) wall;
      row "Ca" "both" "ack codec" (l.Layers.ack_codec_ns /. 2. *. f (Trace.received s + Trace.calls e Trace.Send)) wall;
      row "T" "both" "memnet send/flush/poll calls" (f (Trace.transport_ns s + Trace.transport_ns e)) wall;
      row "C" "both" "unattributed (engine, senders, simulator)" (sa.self_ns -. sa.explained_ns) wall;
      line "  %-3s %-7s %-38s %12.1f %7.1f%%" "=" "domain" "wall per DATA datagram" (per wall) 100.);
  Buffer.contents b

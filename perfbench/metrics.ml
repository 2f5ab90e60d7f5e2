(* Every metric the benchmark prints, by name and unit: the end-to-end set
   of an untraced run and the per-layer set of a traced run. BENCHMARK.json
   must list exactly these (the self-test checks it). The latencies, median
   and tail at the sender and at the engine, are printed with each run but
   are not end-to-end metrics: on [small] they move with the host's wake-up
   latency and GC pauses, and their quartile spreads over ten runs on a
   2-core host reached 0.25 (sender median), 0.34 (engine median), 0.64 and
   0.99 (tails) — as wide as or wider than any bound a regression gate can
   use. *)

type better = Higher | Lower
type def = { name : string; unit : string; better : better }

let def name unit better = { name; unit; better }

let end_to_end =
  [
    def "goodput_mbit_s" "Mbit/s" Higher;
    def "transfers_per_s" "1/s" Higher;
    def "cpu_ns_per_byte" "ns/B" Lower;
    def "peak_rss_mib" "MiB" Lower;
    def "setup_s" "s" Lower;
    def "vgoodput_mbit_s" "Mbit/s" Higher;
  ]

let per_layer =
  [
    def "packet.encode_ns" "ns" Lower;
    def "packet.decode_ns" "ns" Lower;
    def "packet.encode_alloc_words" "words" Lower;
    def "packet.decode_alloc_words" "words" Lower;
    def "packet.ack_codec_ns" "ns" Lower;
    def "packet.crc32_ns_per_byte" "ns/B" Lower;
    def "protocol.retransmit_share" "share" Lower;
    def "protocol.rounds_per_transfer" "count" Lower;
    def "protocol.timeouts_per_transfer" "count" Lower;
    def "protocol.nacks_per_transfer" "count" Lower;
    def "protocol.duplicates_share" "share" Lower;
    def "sockets.flow_ns_per_datagram" "ns" Lower;
    def "sockets.sender.flush_ns_per_datagram" "ns" Lower;
    def "sockets.engine.flush_ns_per_datagram" "ns" Lower;
    def "sockets.engine.poll_ns_per_datagram" "ns" Lower;
    def "sockets.sender.datagrams_per_syscall" "count" Higher;
    def "sockets.engine.datagrams_per_syscall" "count" Higher;
    def "sockets.sender.wait_share" "share" Lower;
    def "sockets.engine.wait_share" "share" Lower;
    def "sockets.sender.self_ns_per_datagram" "ns" Lower;
    def "sockets.engine.self_ns_per_datagram" "ns" Lower;
    def "sockets.handshake_us" "us" Lower;
    def "server.tick_p50_us" "us" Lower;
    def "server.tick_p99_us" "us" Lower;
    def "server.recv_drained_mean" "count" Higher;
    def "server.flush_train_mean" "count" Higher;
    def "server.timer_heap_depth_p99" "count" Lower;
    def "server.drain_exhausted" "count" Lower;
    def "server.spurious_wakeups_per_transfer" "count" Lower;
    def "server.rejected_per_accepted" "count" Lower;
    def "server.lingering_flows_mean" "count" Lower;
    def "server.timers_ns_per_op" "ns" Lower;
    def "faults.netem_ns_per_datagram" "ns" Lower;
    def "faults.injected_per_datagram" "count" Lower;
    def "dst.virtual_s_per_wall_s" "s/s" Higher;
    def "dst.violations" "count" Lower;
    def "gc.sender.alloc_words_per_datagram" "words" Lower;
    def "gc.engine.alloc_words_per_datagram" "words" Lower;
    def "gc.minor_collections_per_mib" "1/MiB" Lower;
    def "gc.major_collections" "count" Lower;
    def "reconcile.sender.unattributed_share" "share" Lower;
    def "reconcile.engine.unattributed_share" "share" Lower;
    def "trace.overhead_share" "share" Lower;
  ]

let better_name = function Higher -> "higher" | Lower -> "lower"

(* The one result line: [{"correct":…,"attempted":…,"failed":…,"metrics":{…}}]
   with every metric of [defs] — no more, no fewer. Values are printed with
   all their digits. *)
let result_line ~correct ~attempted ~failed defs values =
  let names = List.map (fun d -> d.name) defs in
  List.iter
    (fun (name, _) ->
      if not (List.mem name names) then invalid_arg ("Metrics: unregistered metric " ^ name))
    values;
  let metric d =
    match List.assoc_opt d.name values with
    | None -> invalid_arg ("Metrics: missing metric " ^ d.name)
    | Some v ->
        if not (Float.is_finite v) then
          invalid_arg (Printf.sprintf "Metrics: %s is not finite" d.name);
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" d.name v d.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric defs))

let ratio num den = if den = 0. then 0. else num /. den
let fratio num den = ratio (float_of_int num) (float_of_int den)

(* One run of one workload: its end-to-end metrics (untraced) or its
   per-layer metrics, Table 2 and tracing overhead (traced). *)

type result = {
  errors : string list;  (** corrupt or unpaired deliveries, violations *)
  attempted : int;
  failed : int;  (** attempts that ended in anything but a verified success *)
  values : (string * float) list;
}

let f = float_of_int
let say fmt = Printf.printf (fmt ^^ "\n%!")

let say_latency what (s : Pct.summary) =
  say "%s: n=%d p50=%.3f ms p%d=%.3f ms (highest percentile with >= %d samples beyond it)" what
    s.Pct.n s.Pct.p50 s.Pct.tail_p s.Pct.tail Pct.min_beyond

let summarize what errors samples =
  if Array.length samples = 0 then (errors @ [ what ^ ": no verified transfers" ], None)
  else (errors, Some (Pct.summarize samples))

(* ------------------------------------------------------------ set-up *)

(* One process's set-up times: [setups] set-ups, inputs generated first. *)
let setup_samples workload ~seed =
  match workload with
  | "fanin_lossy" -> Fanin.setup_samples ~seed
  | _ ->
      let shape = if workload = "bulk" then Udp_load.bulk else Udp_load.small in
      let server, samples = Udp_load.start_measured (Udp_load.make_inputs shape ~seed) in
      Udp_load.stop_server ~settle:false server;
      samples

(* [setup_s] is the median CPU time over the run's own set-ups and those of
   [setup_processes] fresh processes. A set-up takes about a millisecond,
   and its level moves with the process it runs in. *)
let setup_processes = 15

(* Child [k] gets a seed of its own, derived from [seed], so that no two
   set-ups of a run play the same [fanin_lossy] warm-up trial. *)
let setup_probe workload ~seed k =
  let exe = Sys.executable_name in
  let child_seed = (seed * (setup_processes + 1)) + k + 1 in
  let ic =
    Unix.open_process_args_in exe [| exe; "--setup-probe"; workload; "--seed"; string_of_int child_seed |]
  in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> List.map float_of_string (String.split_on_char ' ' (String.trim out))
  | _ -> failwith "set-up probe process failed"

(* For the UDP workloads, one after the other before the measured loop. *)
let setup_samples_in_processes workload ~seed =
  List.concat_map (setup_probe workload ~seed) (List.init setup_processes Fun.id)

(* The median set-up time, with every sample printed. *)
let say_setup samples =
  let median = Pct.median samples in
  say "setup_s: median %.6f s of process CPU time over %d set-ups [%s]" median (List.length samples)
    (String.concat " " (List.map (Printf.sprintf "%.6f") samples));
  median

let peak_rss_mib () = f (Clock.max_rss_kib ()) /. 1024.

let say_outcomes (w : Udp_load.window) =
  say "transfers=%d verified=%d failed=%d (refused for %.0f s: %d, unreachable or attempts exhausted: %d) failed_share=%.4f; REJ replies=%d (%.2f per transfer, each retried after %.0f ms)"
    w.Udp_load.attempted w.Udp_load.ok (w.Udp_load.attempted - w.Udp_load.ok)
    (f Udp_load.max_refused_ns /. 1e9) w.Udp_load.refused_out w.Udp_load.unreachable
    (Metrics.fratio (w.Udp_load.attempted - w.Udp_load.ok) w.Udp_load.attempted)
    w.Udp_load.rejected (Metrics.fratio w.Udp_load.rejected w.Udp_load.attempted)
    (Udp_load.refused_pause_s *. 1e3)

(* ------------------------------------------------------------- UDP *)

let udp_e2e (shape : Udp_load.shape) ~seed ~seconds ~other_setups =
  let inputs = Udp_load.make_inputs shape ~seed in
  let server, setups = Udp_load.start_measured inputs in
  let setup_s = say_setup (setups @ other_setups) in
  let w = Udp_load.run_window inputs server ~next_id:(ref Udp_load.first_measured_id) ~seconds in
  Udp_load.stop_server server;
  let events = !(server.Udp_load.events) in
  let errors = Udp_load.verify w events in
  let vgoodput, vlat = Udp_load.engine_view events in
  let errors, lat = summarize "sender latency" errors (Array.of_list w.Udp_load.latencies_ms) in
  let errors, vl = summarize "engine latency" errors vlat in
  say_outcomes w;
  let wall_s = f w.Udp_load.wall_ns /. 1e9 in
  let values =
    match (lat, vl) with
    | Some lat, Some vl ->
        say_latency "sender latency (Peer.send wall time)" lat;
        say_latency "engine latency (admitted -> final DATA, linger excluded, monotonic)" vl;
        [
          ("goodput_mbit_s", 8. *. f w.Udp_load.ok_bytes /. wall_s /. 1e6);
          ("transfers_per_s", f w.Udp_load.ok /. wall_s);
          ("cpu_ns_per_byte", f w.Udp_load.cpu_ns /. f w.Udp_load.ok_bytes);
          ("peak_rss_mib", peak_rss_mib ());
          ("setup_s", setup_s);
          ("vgoodput_mbit_s", vgoodput);
        ]
    | _ -> []
  in
  { errors; attempted = w.Udp_load.attempted; failed = w.Udp_load.attempted - w.Udp_load.ok; values }

let goodput_of (w : Udp_load.window) = 8. *. f w.Udp_load.ok_bytes /. (f w.Udp_load.wall_ns /. 1e9) /. 1e6

let mean = function [] -> 0. | xs -> List.fold_left ( +. ) 0. xs /. f (List.length xs)
let mean_us ns = mean (List.map (fun x -> f x /. 1e3) ns)

let overhead_line ~untraced ~traced =
  let share = 1. -. (traced /. untraced) in
  say "tracing overhead: untraced %.2f vs traced %.2f Mbit/s goodput, %.1f%% slower traced" untraced
    traced (100. *. share);
  share

let udp_traced (shape : Udp_load.shape) ~seed ~seconds ~spans_path =
  let inputs = Udp_load.make_inputs shape ~seed in
  let half = seconds /. 2. in
  let next_id = ref Udp_load.first_measured_id in
  let plain = Udp_load.start_server inputs in
  let w1 = Udp_load.run_window inputs plain ~next_id ~seconds:half in
  Udp_load.stop_server plain;
  let errors1 = Udp_load.verify w1 !(plain.Udp_load.events) in
  let batch_capacity = Udp_load.tx_batch_capacity () in
  let sender = Trace.create_side ~batch_capacity "sender" in
  let engine = Trace.create_side ~batch_capacity "engine" in
  let traced = Udp_load.start_server ~engine_side:engine ~stats_interval_ns:250_000_000 inputs in
  Trace.start_recording engine;
  Trace.start_recording sender;
  let gc0 = Gc.quick_stat () in
  let w2 = Udp_load.run_window ~sender_side:sender inputs traced ~next_id ~seconds:half in
  let gc1 = Gc.quick_stat () in
  Udp_load.stop_server traced;
  let errors = errors1 @ Udp_load.verify w2 !(traced.Udp_load.events) in
  let overhead = overhead_line ~untraced:(goodput_of w1) ~traced:(goodput_of w2) in
  let health = Server.Engine.health traced.Udp_load.engine in
  let depth = max 1 (int_of_float (Report.quantile health.Server.Engine.timer_heap_depth 0.99)) in
  let layers =
    Layers.measure ~input:inputs.Udp_load.payloads.(0) ~packet_bytes:Udp_load.packet_bytes
      ~tuning:Udp_load.tuning ~timers_depth:depth
  in
  let o =
    {
      Report.workload = shape.Udp_load.label;
      layers;
      sender;
      engine;
      shared_domain_wall_ns = None;
      transfers = w2.Udp_load.ok;
      payload_bytes = w2.Udp_load.ok_bytes;
      attempted_bytes = w2.Udp_load.attempted_bytes;
      sender_counters = w2.Udp_load.counters;
      rollup = Server.Engine.rollup traced.Udp_load.engine;
      health;
      totals = Server.Engine.totals traced.Udp_load.engine;
      lingering_mean = mean (List.map Fanin.lingering_flows !(traced.Udp_load.snapshots));
      handshake_us = mean_us sender.Trace.handshake_ns;
      injected_per_datagram =
        Metrics.fratio w2.Udp_load.counters.Protocol.Counters.faults_injected (Trace.calls sender Trace.Send);
      (* Real UDP runs on the monotonic clock: one transport second per
         wall second. *)
      virtual_s_per_wall_s = 1.;
      violations = 0;
      minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      overhead_share = overhead;
    }
  in
  say_outcomes w2;
  print_string (Report.table2 o);
  Trace.write_spans spans_path [ sender; engine ];
  say "spans: %d sender + %d engine written to %s" (Trace.span_count sender) (Trace.span_count engine)
    spans_path;
  {
    errors;
    attempted = w1.Udp_load.attempted + w2.Udp_load.attempted;
    failed = w1.Udp_load.attempted - w1.Udp_load.ok + w2.Udp_load.attempted - w2.Udp_load.ok;
    values = Report.per_layer o;
  }

(* ------------------------------------------------------------- fanin *)

(* Totals over every trial played, replays included; [views],
   [engine_latencies_ms] and [virtual_ns] are of the distinct ones. *)
type fanin_play = {
  views : Fanin.sender_view list;
  engine_latencies_ms : float list;
  virtual_ns : int;
  replays : int;
  repeats_wall_ns : int;
  repeats_ok : int;
  repeats_bytes : int;
  repeats_attempted : int;
  repeats_failed : int;
  repeat_errors : string list;
}

(* Play the distinct trials once, then replay them in order until [seconds]
   of wall time have been spent in [Dst.Harness.run]. What the distinct
   trials are read for is taken from each as soon as it ends, so that no
   trial's journal outlives it and peak RSS is the program's, not the
   benchmark's. [between] runs after each trial, outside the timed calls,
   with the wall time spent in them so far. *)
let play_fanin ~seed ~seconds ~between =
  let configs = List.init Fanin.distinct_trials (Fanin.trial_config ~seed) in
  let budget = int_of_float (seconds *. 1e9) in
  let wall = ref 0 in
  let ok = ref 0 and bytes = ref 0 and attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let account (t : Dst.Harness.trial) (v : Fanin.sender_view) =
    ok := !ok + v.Fanin.ok;
    bytes := !bytes + v.Fanin.ok_bytes;
    attempted := !attempted + t.Dst.Harness.attempted;
    failed := !failed + (t.Dst.Harness.attempted - t.Dst.Harness.completed);
    errors := !errors @ Fanin.violations_of t
  in
  let first cfg =
    let t, ns = Fanin.timed_trial cfg in
    let v = Fanin.sender_view t in
    wall := !wall + ns;
    account t v;
    between !wall;
    (v, Fanin.engine_latencies_ms t, t.Dst.Harness.virtual_ns)
  in
  let played = List.map first configs in
  let views = List.map (fun (v, _, _) -> v) played in
  let distinct = Array.of_list (List.combine configs views) in
  let i = ref 0 in
  while !wall < budget do
    let cfg, v = distinct.(!i mod Array.length distinct) in
    let t, ns = Fanin.timed_trial cfg in
    wall := !wall + ns;
    account t v;
    between !wall;
    incr i
  done;
  {
    views;
    engine_latencies_ms = List.concat_map (fun (_, l, _) -> l) played;
    virtual_ns = List.fold_left (fun a (_, _, ns) -> a + ns) 0 played;
    replays = !i;
    repeats_wall_ns = !wall;
    repeats_ok = !ok;
    repeats_bytes = !bytes;
    repeats_attempted = !attempted;
    repeats_failed = !failed;
    repeat_errors = !errors;
  }

(* The set-up probe processes run between trials, one each time another
   [1 / setup_processes] of the run has passed, not all before it: the cost
   of a set-up moves with the host within a tenth of a second or so, and the
   probes then sample the host over the run as the trials do. The probes'
   CPU is their own processes', not counted in [cpu_ns]. *)
let fanin_e2e ~seed ~seconds =
  let own = Fanin.setup_samples ~seed in
  let budget = int_of_float (seconds *. 1e9) in
  let probed = ref [] and next = ref 0 in
  let probe () =
    probed := setup_probe "fanin_lossy" ~seed !next @ !probed;
    incr next
  in
  let between wall_ns =
    while !next < setup_processes && wall_ns >= !next * (budget / setup_processes) do
      probe ()
    done
  in
  let cpu0 = Clock.process_cpu_ns () in
  let p = play_fanin ~seed ~seconds ~between in
  let cpu_ns = Clock.process_cpu_ns () - cpu0 in
  while !next < setup_processes do
    probe ()
  done;
  let setup_s = say_setup (own @ List.rev !probed) in
  let views = p.views in
  let lat = Array.of_list (List.concat_map (fun (v : Fanin.sender_view) -> v.Fanin.latencies_ms) views) in
  let vlat = Array.of_list p.engine_latencies_ms in
  let errors, lat_s = summarize "sender latency" p.repeat_errors lat in
  let errors, vlat_s = summarize "engine latency" errors vlat in
  let distinct_bytes = List.fold_left (fun a (v : Fanin.sender_view) -> a + v.Fanin.ok_bytes) 0 views in
  let virtual_s = f p.virtual_ns /. 1e9 in
  let wall_s = f p.repeats_wall_ns /. 1e9 in
  say "%d distinct trials (%d senders x %d transfers, %d-%d KiB, lossy2, %s), %d replays, %.2f s in Dst.Harness.run"
    Fanin.distinct_trials Fanin.senders Fanin.transfers (Fanin.bytes_min / 1024) (Fanin.bytes_max / 1024)
    (Protocol.Tuning.name Fanin.tuning) p.replays wall_s;
  say "attempted=%d verified=%d failed=%d failed_share=%.4f" p.repeats_attempted p.repeats_ok
    p.repeats_failed (Metrics.fratio p.repeats_failed p.repeats_attempted);
  let values =
    match (lat_s, vlat_s) with
    | Some lat_s, Some vlat_s ->
        say_latency "sender latency (Peer.send_via, virtual time)" lat_s;
        say_latency "engine latency (flowtrace admitted -> done, virtual time)" vlat_s;
        [
          ("goodput_mbit_s", 8. *. f p.repeats_bytes /. wall_s /. 1e6);
          ("transfers_per_s", f p.repeats_ok /. wall_s);
          ("cpu_ns_per_byte", f cpu_ns /. f p.repeats_bytes);
          ("peak_rss_mib", peak_rss_mib ());
          ("setup_s", setup_s);
          ("vgoodput_mbit_s", 8. *. f distinct_bytes /. virtual_s /. 1e6);
        ]
    | _ -> []
  in
  { errors; attempted = p.repeats_attempted; failed = p.repeats_failed; values }

(* A fixed amount of work: each distinct trial once through
   [Dst.Harness.run], once on the plain replica and once traced. *)
let fanin_traced ~seed ~spans_path =
  let configs = List.init Fanin.distinct_trials (Fanin.trial_config ~seed) in
  let trials = List.map Fanin.timed_trial configs in
  let errors = List.concat_map (fun (t, _) -> Fanin.violations_of t) trials in
  let dst_wall = f (List.fold_left (fun a (_, ns) -> a + ns) 0 trials) in
  let dst_virtual = f (List.fold_left (fun a (t, _) -> a + t.Dst.Harness.virtual_ns) 0 trials) in
  let plain = List.map (fun cfg -> Fanin.run_replica cfg) configs in
  let sender = Trace.create_side ~suspending_recv:true "sender" in
  let engine = Trace.create_side ~suspending_recv:true "engine" in
  Trace.start_recording sender;
  Trace.start_recording engine;
  let gc0 = Gc.quick_stat () in
  let traced = Fanin.merge (List.map (fun cfg -> Fanin.run_replica ~sides:(sender, engine) cfg) configs) in
  let gc1 = Gc.quick_stat () in
  Trace.end_window sender;
  Trace.end_window engine;
  let plain = Fanin.merge plain in
  let corrupt = plain.Fanin.corrupt + traced.Fanin.corrupt in
  let errors =
    errors @ if corrupt > 0 then [ Printf.sprintf "replica: %d unverified engine successes" corrupt ] else []
  in
  let goodput (r : Fanin.replica) = 8. *. f r.Fanin.ok_bytes /. (f r.Fanin.wall_ns /. 1e9) /. 1e6 in
  let overhead = overhead_line ~untraced:(goodput plain) ~traced:(goodput traced) in
  let sent = Trace.calls sender Trace.Send + Trace.calls engine Trace.Send in
  let health = traced.Fanin.health in
  let depth = max 1 (int_of_float (Report.quantile health.Server.Engine.timer_heap_depth 0.99)) in
  let input = Udp_load.payload (Stats.Rng.create ~seed) Fanin.bytes_max in
  let layers =
    Layers.measure ~input ~packet_bytes:Fanin.packet_bytes ~tuning:Fanin.tuning ~timers_depth:depth
  in
  let o =
    {
      Report.workload = "fanin_lossy";
      layers;
      sender;
      engine;
      shared_domain_wall_ns = Some traced.Fanin.wall_ns;
      transfers = traced.Fanin.ok;
      payload_bytes = traced.Fanin.ok_bytes;
      attempted_bytes = traced.Fanin.attempted_bytes;
      sender_counters = traced.Fanin.counters;
      rollup = traced.Fanin.rollup;
      health;
      totals = traced.Fanin.totals;
      lingering_mean = mean traced.Fanin.lingering;
      handshake_us = mean_us traced.Fanin.handshake_ns;
      injected_per_datagram = Metrics.fratio (sent - traced.Fanin.delivered) sent;
      virtual_s_per_wall_s = dst_virtual /. dst_wall;
      violations = List.length errors;
      minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      overhead_share = overhead;
    }
  in
  print_string (Report.table2 o);
  Trace.write_spans spans_path [ sender; engine ];
  say "spans: %d sender + %d engine written to %s (memnet recvs suspend in virtual time and are counted, not timed)"
    (Trace.span_count sender) (Trace.span_count engine) spans_path;
  let attempted = List.fold_left (fun a (t, _) -> a + t.Dst.Harness.attempted) 0 trials in
  let completed = List.fold_left (fun a (t, _) -> a + t.Dst.Harness.completed) 0 trials in
  { errors; attempted; failed = attempted - completed; values = Report.per_layer o }

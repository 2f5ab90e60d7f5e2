(* The [fanin_lossy] workload: 32 simulated senders fan in on one engine
   through [Dst.Harness.run] — virtual time, one domain, [lossy2] on every
   link, adaptive tuning, steady churn. Each run plays a fixed set of
   distinct trials (their virtual-time results repeat exactly for a seed) and
   replays them until the wall-clock budget is spent. *)

(* 16 distinct trials of 4 transfers per sender rather than 4 of 8: peak
   RSS is the largest over a run's trials and grows with the transfers a
   trial holds, and at 4 trials of 8 it differed from seed to seed by up to
   a third (52-69 MiB); at 16 of 4 it reads 32-39 MiB. *)
let senders = 32
let transfers = 4
let distinct_trials = 16
let bytes_min = 16 * 1024
let bytes_max = 256 * 1024
let packet_bytes = 1024
(* Room for every sender's active flow and the ones still lingering, so that
   no REQ is refused: the admission cap is [small]'s subject, and here 1 % of
   transfers refused at 64 flows would make every run fail some. *)
let max_flows = 4 * senders
let tuning = Protocol.Tuning.adaptive ~retransmit_ns:20_000_000 ~max_attempts:20 ()

let config ~seed =
  {
    (Dst.Harness.default_config ~seed) with
    Dst.Harness.churn = Dst.Harness.Steady;
    faults = Some Faults.Scenario.lossy2;
    senders;
    transfers;
    max_flows;
    bytes_min;
    bytes_max;
    think_min_ns = 0;
    think_max_ns = 0;
    packet_bytes;
    tuning;
    horizon_ns = 600_000_000_000;
  }

let trial_config ~seed k = config ~seed:((seed * distinct_trials) + k)

(* Set-up: one two-sender trial of the same shape — the simulator, memnet,
   engine and senders built and run once, finishing lazy initialisation. *)
let warmup_config ~seed = { (config ~seed) with Dst.Harness.senders = 2; transfers = 1; bytes_max = bytes_min }

(* Sender-side latency and verified bytes from the journal: each sender's
   [start id=… bytes=…] and [end id=… outcome=…] lines, in virtual ns. *)
type sender_view = { latencies_ms : float list; ok_bytes : int; ok : int }

let sender_view (trial : Dst.Harness.trial) =
  let starts = Hashtbl.create 512 in
  let latencies = ref [] and ok_bytes = ref 0 and ok = ref 0 in
  List.iter
    (fun line ->
      match Scanf.sscanf line "[%d] %s %s id=%d %s@\n" (fun ts who verb id rest -> (ts, who, verb, id, rest)) with
      | ts, who, "start", id, rest ->
          let bytes = Scanf.sscanf rest "bytes=%d" Fun.id in
          Hashtbl.replace starts (who, id) (ts, bytes)
      | ts, who, "end", id, rest ->
          if String.starts_with ~prefix:"outcome=success " rest then begin
            let t0, bytes = Hashtbl.find starts (who, id) in
            latencies := (float_of_int (ts - t0) /. 1e6) :: !latencies;
            ok_bytes := !ok_bytes + bytes;
            incr ok
          end
      | _ -> ()
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> ())
    (String.split_on_char '\n' trial.Dst.Harness.journal);
  { latencies_ms = !latencies; ok_bytes = !ok_bytes; ok = !ok }

(* Engine-side latency from the exported flowtrace: admitted → done. *)
let engine_latencies_ms (trial : Dst.Harness.trial) =
  let admitted = Hashtbl.create 512 in
  List.filter_map
    (fun line ->
      match Obs.Json.parse line with
      | Error _ -> None
      | Ok j -> (
          let str k = Option.bind (Obs.Json.member k j) Obs.Json.to_str in
          let ts = Option.bind (Obs.Json.member "ts" j) Obs.Json.to_int in
          match (str "flow", str "ev", ts) with
          | Some flow, Some "admitted", Some ts ->
              Hashtbl.replace admitted flow ts;
              None
          | Some flow, Some "done", Some ts ->
              Option.map (fun t0 -> float_of_int (ts - t0) /. 1e6) (Hashtbl.find_opt admitted flow)
          | _ -> None))
    (String.split_on_char '\n' trial.Dst.Harness.flowtrace)

let timed_trial cfg =
  let t0 = Clock.now_ns () in
  let trial = Dst.Harness.run cfg in
  (trial, Clock.now_ns () - t0)

let violations_of (trial : Dst.Harness.trial) =
  List.map
    (fun v -> Printf.sprintf "trial seed %d: %s" trial.Dst.Harness.seed v)
    trial.Dst.Harness.violations

let setups = 11

(* In process CPU seconds, like the UDP set-ups. Each set-up plays its own
   warm-up trial, seeded from [seed]: with one trial per seed, the warm-up's
   fault draws made the set-up cost differ from seed to seed. *)
let setup_samples ~seed =
  List.init setups (fun i ->
      let c0 = Clock.process_cpu_ns () in
      ignore (Dst.Harness.run (warmup_config ~seed:((seed * setups) + i)));
      float_of_int (Clock.process_cpu_ns () - c0) /. 1e9)

(* ------------------------------------------------------------ replica *)

(* The traced run needs what [Dst.Harness.run] keeps inside: the engine's
   health and counter roll-up, the senders' counters, and the transports to
   wrap. So it also plays each trial's shape on a replica built from the same
   public modules — memnet, [Server.Engine], [Peer.send_via] — with the same
   sender schedule (staggered start, back-to-back transfers), minus the
   journal and the invariant watch. *)

type replica = {
  wall_ns : int;
  ok : int;
  ok_bytes : int;
  attempted_bytes : int;
  counters : Protocol.Counters.t;
  rollup : Protocol.Counters.t;
  health : Server.Engine.health;
  totals : Server.Engine.totals;
  corrupt : int;
  delivered : int;  (** memnet deliveries *)
  lingering : float list;  (** lingering flows per snapshot *)
  handshake_ns : int list;  (** virtual time from [Peer.send_via] to its first DATA *)
}

let server_port = 9_000
let server_address = Unix.ADDR_INET (Unix.inet_addr_loopback, server_port)

let plan (cfg : Dst.Harness.config) =
  Array.init cfg.Dst.Harness.senders (fun i ->
      let rng = Stats.Rng.derive ~root:cfg.Dst.Harness.seed ~index:(100 + i) in
      let start_ns = 1_000_000 + Stats.Rng.int rng 500_000_000 in
      let sizes =
        Array.init cfg.Dst.Harness.transfers (fun _ ->
            cfg.Dst.Harness.bytes_min
            + Stats.Rng.int rng (cfg.Dst.Harness.bytes_max - cfg.Dst.Harness.bytes_min + 1))
      in
      (start_ns, Array.map (Udp_load.payload rng) sizes))

let lingering_flows snapshot =
  match Option.bind (Obs.Json.member "flows" snapshot) Obs.Json.to_list with
  | None -> 0.
  | Some flows ->
      float_of_int
        (List.length
           (List.filter
              (fun fl ->
                Option.bind (Obs.Json.member "status" fl) Obs.Json.to_str = Some "lingering")
              flows))

let run_replica ?sides (cfg : Dst.Harness.config) =
  let plans = plan cfg in
  let sim = Eventsim.Sim.create () in
  let net =
    Memnet.Net.create ~sim ~latency_ns:cfg.Dst.Harness.latency_ns ?scenario:cfg.Dst.Harness.faults
      ~seed:cfg.Dst.Harness.seed ()
  in
  let clock () = Eventsim.Time.to_ns (Eventsim.Sim.now sim) in
  let ctx = Sockets.Io_ctx.make ~clock ~tuning:cfg.Dst.Harness.tuning () in
  let wrap_sender, wrap_engine =
    match sides with
    | None -> (Fun.id, Fun.id)
    | Some (s, e) -> (Trace.wrap s, Trace.wrap e)
  in
  let corrupt = ref 0 and lingering = ref [] and handshakes = ref [] in
  let on_complete (e : Server.Engine.completion_event) =
    let c = e.Server.Engine.completion in
    if c.Sockets.Flow.outcome = Protocol.Action.Success && c.Sockets.Flow.integrity <> Sockets.Flow.Verified
    then incr corrupt
  in
  let endpoint = Memnet.Net.bind ~port:server_port net in
  let engine =
    Server.Engine.create ~max_flows:cfg.Dst.Harness.max_flows ~ctx ~on_complete
      ?stats_interval_ns:(Option.map (fun _ -> 10_000_000) sides)
      ~on_snapshot:(fun j -> lingering := lingering_flows j :: !lingering)
      ~transport:(wrap_engine (Memnet.Net.transport endpoint))
      ()
  in
  let env = Eventsim.Proc.env sim in
  Eventsim.Proc.spawn env ~name:"engine" (fun () -> Server.Engine.run engine);
  let counters = Protocol.Counters.create () in
  let ok = ref 0 and ok_bytes = ref 0 and attempted_bytes = ref 0 in
  let remaining = ref (Array.length plans) in
  Array.iteri
    (fun i (start_ns, payloads) ->
      Eventsim.Proc.spawn env ~name:(Printf.sprintf "sender%d" i) (fun () ->
          Eventsim.Proc.sleep (Eventsim.Time.span_ns start_ns);
          let started = ref 0 and saw_data = ref true in
          let transport =
            let t = wrap_sender (Memnet.Net.transport (Memnet.Net.bind net)) in
            let send ~peer ~on_outcome b =
              if (not !saw_data) && Bytes.get_uint8 b 3 = Trace.data_kind then begin
                saw_data := true;
                handshakes := (clock () - !started) :: !handshakes
              end;
              t.Sockets.Transport.send ~peer ~on_outcome b
            in
            { t with Sockets.Transport.send }
          in
          Array.iteri
            (fun k data ->
              attempted_bytes := !attempted_bytes + String.length data;
              started := clock ();
              saw_data := false;
              let r =
                Sockets.Peer.send_via ~ctx ~transfer_id:(k + 1) ~packet_bytes:cfg.Dst.Harness.packet_bytes
                  ~transport ~peer:server_address ~suite:Layers.suite ~data ()
              in
              if r.Sockets.Peer.outcome = Protocol.Action.Success then begin
                incr ok;
                ok_bytes := !ok_bytes + String.length data;
                Protocol.Counters.merge ~into:counters r.Sockets.Peer.counters
              end)
            payloads;
          decr remaining;
          if !remaining = 0 then Server.Engine.stop engine))
    plans;
  let t0 = Clock.now_ns () in
  Eventsim.Sim.run ~until:(Eventsim.Time.of_ns cfg.Dst.Harness.horizon_ns) sim;
  let wall_ns = Clock.now_ns () - t0 in
  (* The next trial's first wakeup must not count the gap between trials. *)
  Option.iter (fun (s, e) -> s.Trace.last_recv_return <- 0; e.Trace.last_recv_return <- 0) sides;
  {
    wall_ns;
    ok = !ok;
    ok_bytes = !ok_bytes;
    attempted_bytes = !attempted_bytes;
    counters;
    rollup = Server.Engine.rollup engine;
    health = Server.Engine.health engine;
    totals = Server.Engine.totals engine;
    corrupt = !corrupt;
    delivered = (Memnet.Net.stats net).Memnet.Net.delivered;
    lingering = !lingering;
    handshake_ns = !handshakes;
  }

let add_totals ~(into : Server.Engine.totals) (t : Server.Engine.totals) =
  let open Server.Engine in
  into.accepted <- into.accepted + t.accepted;
  into.completed <- into.completed + t.completed;
  into.aborted <- into.aborted + t.aborted;
  into.rejected <- into.rejected + t.rejected;
  into.superseded <- into.superseded + t.superseded;
  into.stray_datagrams <- into.stray_datagrams + t.stray_datagrams;
  into.garbage <- into.garbage + t.garbage;
  into.send_failures <- into.send_failures + t.send_failures

(* Several replica runs as one: sums, merged counters and health. *)
let merge rs =
  let sum g = List.fold_left (fun a r -> a + g r) 0 rs in
  let m =
    {
      wall_ns = sum (fun r -> r.wall_ns);
      ok = sum (fun r -> r.ok);
      ok_bytes = sum (fun r -> r.ok_bytes);
      attempted_bytes = sum (fun r -> r.attempted_bytes);
      counters = Protocol.Counters.create ();
      rollup = Protocol.Counters.create ();
      health = Server.Engine.create_health ();
      totals = Server.Engine.create_totals ();
      corrupt = sum (fun r -> r.corrupt);
      delivered = sum (fun r -> r.delivered);
      lingering = List.concat_map (fun r -> r.lingering) rs;
      handshake_ns = List.concat_map (fun r -> r.handshake_ns) rs;
    }
  in
  List.iter
    (fun r ->
      Protocol.Counters.merge ~into:m.counters r.counters;
      Protocol.Counters.merge ~into:m.rollup r.rollup;
      Server.Engine.merge_health ~into:m.health r.health;
      add_totals ~into:m.totals r.totals)
    rs;
  m

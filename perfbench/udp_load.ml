(* The real-UDP workloads, [bulk] and [small]: one engine on its own domain,
   one closed-loop sender on the main domain reusing one socket, loopback. *)

type shape = { label : string; bytes : int; inputs : int }

let bulk = { label = "bulk"; bytes = 4 lsl 20; inputs = 3 }
let small = { label = "small"; bytes = 1024; inputs = 64 }
let packet_bytes = 1024
let suite = Layers.suite
let tuning = Protocol.Tuning.wire_default
let warmup_bytes = 1024
let warmup_id = 1
let first_measured_id = 1_000
let setups = 11

(* [Transport.udp] queues sends into a [Batch] of its default capacity, 128
   datagrams per [sendmmsg]; on the fallback path every datagram is its own
   syscall. *)
let tx_batch_capacity () =
  if Sockets.Batch.kernel_support () && not (Sockets.Batch.env_force_fallback ()) then 128 else 1

(* Seeded payload, eight bytes per draw; generated before any clock starts. *)
let payload rng bytes =
  let buf = Bytes.create bytes in
  for i = 0 to (bytes / 8) - 1 do
    Bytes.set_int64_le buf (i * 8) (Stats.Rng.bits64 rng)
  done;
  for i = bytes land lnot 7 to bytes - 1 do
    Bytes.set_uint8 buf i (Stats.Rng.int rng 256)
  done;
  Bytes.unsafe_to_string buf

type inputs = { payloads : string array; warmup : string }

let make_inputs shape ~seed =
  let rng = Stats.Rng.derive ~root:seed ~index:0 in
  let payloads = Array.init shape.inputs (fun _ -> payload rng shape.bytes) in
  { payloads; warmup = payload rng warmup_bytes }

(* Transfer ids below [first_measured_id] are warm-ups; the rest cycle
   through the inputs, so the engine side can check any delivery. *)
let expected inputs id =
  if id >= first_measured_id then
    inputs.payloads.((id - first_measured_id) mod Array.length inputs.payloads)
  else inputs.warmup

(* What the engine's [on_complete] saw for one flow. [intact] compares the
   delivered bytes with the benchmark's own input: stronger than comparing
   their CRCs, and a memcmp is cheap enough to run on the engine's domain,
   where a CRC of every 4 MiB delivery would slow the engine under test. *)
type event = {
  id : int;
  outcome : Protocol.Action.outcome;
  integrity : Sockets.Flow.integrity;
  intact : bool;
  bytes : int;
  started_ns : int;
  finished_ns : int;
}

type server = {
  socket : Unix.file_descr;
  poller : Sockets.Poller.t;
  engine : Server.Engine.t;
  domain : unit Domain.t;
  address : Unix.sockaddr;
  sender_socket : Unix.file_descr;
  events : event list ref;  (** written by the engine domain; read after join *)
  snapshots : Obs.Json.t list ref;
  setup_s : float;  (** process CPU seconds *)
}

let ctx () = Sockets.Io_ctx.make ~batch:true ~tuning ()

(* The engine's default linger (3 × the retransmit timer), passed explicitly
   so that the engine-side latency can take it off again: [on_complete]
   fires only when the linger after the final ACK has run out. *)
let linger_ns = 3 * Protocol.Tuning.retransmit_ns tuning

(* Set-up, timed: sockets, poller, [Engine.create], the engine domain's spawn
   and one warm-up transfer that finishes lazy initialisation. [setup_s] is
   the CPU time the process spends on it, every domain included; its wall
   time is mostly cross-domain wake-ups, which on a shared host wait for a
   core (see NOTES.md). *)
let start_server ?engine_side ?stats_interval_ns inputs =
  let t0 = Clock.process_cpu_ns () in
  let socket, address = Sockets.Udp.create_socket () in
  let poller = Sockets.Poller.create () in
  let transport = Sockets.Transport.udp ~batch:true ~poller ~socket () in
  let transport = match engine_side with Some s -> Trace.wrap s transport | None -> transport in
  let events = ref [] and snapshots = ref [] in
  let on_complete (e : Server.Engine.completion_event) =
    let c = e.Server.Engine.completion in
    let id = c.Sockets.Flow.transfer_id in
    events :=
      {
        id;
        outcome = c.Sockets.Flow.outcome;
        integrity = c.Sockets.Flow.integrity;
        intact = String.equal c.Sockets.Flow.data (expected inputs id);
        bytes = String.length c.Sockets.Flow.data;
        started_ns = e.Server.Engine.started_ns;
        finished_ns = e.Server.Engine.finished_ns;
      }
      :: !events
  in
  let on_snapshot j = snapshots := j :: !snapshots in
  let engine =
    Server.Engine.create ~ctx:(ctx ()) ~linger_ns ~on_complete ?stats_interval_ns ~on_snapshot
      ~transport ()
  in
  let domain =
    Domain.spawn (fun () ->
        Server.Engine.run engine;
        Option.iter Trace.end_window engine_side)
  in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  let r =
    Sockets.Peer.send ~ctx:(ctx ()) ~transfer_id:warmup_id ~packet_bytes ~socket:sender_socket
      ~peer:address ~suite ~data:inputs.warmup ()
  in
  if r.Sockets.Peer.outcome <> Protocol.Action.Success then failwith "warm-up transfer failed";
  let setup_s = float_of_int (Clock.process_cpu_ns () - t0) /. 1e9 in
  { socket; poller; engine; domain; address; sender_socket; events; snapshots; setup_s }

(* Stopping force-settles lingering flows early; waiting out the linger
   first lets every measured flow settle on its own timer. *)
let stop_server ?(settle = true) s =
  if settle then Unix.sleepf ((float_of_int linger_ns /. 1e9) +. 0.05);
  Server.Engine.stop s.engine;
  Domain.join s.domain;
  Sockets.Poller.close s.poller;
  Sockets.Udp.close s.socket;
  Sockets.Udp.close s.sender_socket

(* [setups] set-ups, returning the last one and every set-up time; all but
   the last are torn down again. *)
let start_measured inputs =
  let rec go i acc =
    let s = start_server inputs in
    if i = setups then (s, s.setup_s :: acc)
    else begin
      stop_server ~settle:false s;
      go (i + 1) (s.setup_s :: acc)
    end
  in
  go 1 []

type window = {
  mutable attempted : int;  (** transfers, each retried while it is refused *)
  mutable ok : int;
  mutable rejected : int;  (** REJ replies, retries included *)
  mutable refused_out : int;  (** transfers still refused after [max_refused_ns] *)
  mutable unreachable : int;
  mutable ok_bytes : int;
  mutable attempted_bytes : int;  (** payload bytes of every [Peer.send] call *)
  mutable latencies_ms : float list;
  mutable ok_ids : int list;
  counters : Protocol.Counters.t;  (** summed over verified transfers *)
  mutable wall_ns : int;
  mutable cpu_ns : int;
}

let empty_window () =
  {
    attempted = 0; ok = 0; rejected = 0; refused_out = 0; unreachable = 0; ok_bytes = 0;
    attempted_bytes = 0; latencies_ms = []; ok_ids = []; counters = Protocol.Counters.create ();
    wall_ns = 0; cpu_ns = 0;
  }

(* A refused transfer is sent again, with the same id and data, after
   [refused_pause_s], for up to [max_refused_ns]: many times the linger that
   holds a flow slot, so only an engine that stopped admitting altogether
   fails a transfer this way. At the cap a slot frees every 150 ms / 64 =
   2.3 ms. Retried at once, the client spun through 3-8 REJs per transfer,
   and [small]'s CPU per byte and transfer rate measured how much CPU the
   host left that spin (CPU per byte spread by 0.33 over ten runs). *)
let refused_pause_s = 0.001
let max_refused_ns = 2_000_000_000

(* The closed loop: one transfer at a time until [seconds] have passed. A
   REJ at the admission cap is counted and the transfer retried, so the cap
   shows as the transfer rate and the REJ count, not as failed transfers.
   Traced, each call runs [Peer.send_via] over a wrapped [Transport.udp] on
   the same socket — exactly what [Peer.send] builds per call. *)
let run_window ?sender_side inputs server ~next_id ~seconds =
  let w = empty_window () in
  let ctx = ctx () in
  let send id data =
    match sender_side with
    | None ->
        Sockets.Peer.send ~ctx ~transfer_id:id ~packet_bytes ~socket:server.sender_socket
          ~peer:server.address ~suite ~data ()
    | Some side ->
        let transport = Trace.wrap side (Sockets.Transport.udp ~batch:true ~socket:server.sender_socket ()) in
        Trace.transfer side (fun () ->
            Sockets.Peer.send_via ~ctx ~transfer_id:id ~packet_bytes ~transport
              ~peer:server.address ~suite ~data ())
  in
  Option.iter Trace.begin_window sender_side;
  let cpu0 = Clock.process_cpu_ns () in
  let t_start = Clock.now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  while Clock.now_ns () < deadline do
    let id = !next_id in
    incr next_id;
    let data = expected inputs id in
    w.attempted <- w.attempted + 1;
    let first = Clock.now_ns () in
    let rec attempt () =
      let t0 = Clock.now_ns () in
      let r = send id data in
      let t1 = Clock.now_ns () in
      w.attempted_bytes <- w.attempted_bytes + String.length data;
      match r.Sockets.Peer.outcome with
      | Protocol.Action.Success ->
          w.ok <- w.ok + 1;
          w.ok_bytes <- w.ok_bytes + String.length data;
          w.latencies_ms <- (float_of_int (t1 - t0) /. 1e6) :: w.latencies_ms;
          w.ok_ids <- id :: w.ok_ids;
          Protocol.Counters.merge ~into:w.counters r.Sockets.Peer.counters
      | Protocol.Action.Rejected ->
          w.rejected <- w.rejected + 1;
          if t1 - first < max_refused_ns then begin
            Unix.sleepf refused_pause_s;
            attempt ()
          end
          else w.refused_out <- w.refused_out + 1
      | Protocol.Action.Peer_unreachable | Protocol.Action.Too_many_attempts ->
          w.unreachable <- w.unreachable + 1
    in
    attempt ()
  done;
  w.wall_ns <- Clock.now_ns () - t_start;
  w.cpu_ns <- Clock.process_cpu_ns () - cpu0;
  Option.iter Trace.end_window sender_side;
  w

(* Pair every sender success with the engine's settlement of that transfer
   id: [Success], CRC [Verified], bytes equal to the input. Any engine-side
   success that is not intact is a corrupt delivery. *)
let verify w events =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace by_id e.id e) events;
  let good e =
    e.outcome = Protocol.Action.Success && e.integrity = Sockets.Flow.Verified && e.intact
  in
  let corrupt =
    List.filter_map
      (fun e ->
        if e.outcome = Protocol.Action.Success && not (good e) then
          Some
            (Printf.sprintf "transfer %d settled %s with %s bytes" e.id
               (match e.integrity with
               | Sockets.Flow.Verified -> "verified"
               | Sockets.Flow.Mismatch -> "CRC mismatch"
               | Sockets.Flow.Not_carried -> "no CRC")
               (if e.intact then "intact" else "wrong"))
        else None)
      events
  in
  let unpaired =
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt by_id id with
        | Some e when good e -> None
        | Some _ -> Some (Printf.sprintf "transfer %d: sender success, engine settled it unverified" id)
        | None -> Some (Printf.sprintf "transfer %d: sender success with no engine settlement" id))
      w.ok_ids
  in
  corrupt @ unpaired

(* Engine-side view in the transport's clock (monotonic here), per verified
   measured flow: admitted → final DATA, which is settlement minus the linger
   (plus the few microseconds by which the linger timer fires late); and
   verified bits over the span from the first admission to the last final
   DATA. In a closed loop on one engine that span is the measured window, so
   on UDP this goodput repeats [goodput_mbit_s] as the engine clocks it. *)
let engine_view events =
  let measured =
    List.filter (fun e -> e.id >= first_measured_id && e.outcome = Protocol.Action.Success) events
  in
  match measured with
  | [] -> (0., [||])
  | _ ->
      let first = List.fold_left (fun a e -> min a e.started_ns) max_int measured in
      let done_ns e = e.finished_ns - linger_ns in
      let last = List.fold_left (fun a e -> max a (done_ns e)) min_int measured in
      let bits = 8. *. float_of_int (List.fold_left (fun a e -> a + e.bytes) 0 measured) in
      ( bits /. (float_of_int (last - first) /. 1e9) /. 1e6,
        Array.of_list (List.map (fun e -> float_of_int (done_ns e - e.started_ns) /. 1e6) measured) )

(* Isolated layer costs: each module's public function timed alone on the
   workload's own datagrams. The traced run multiplies these by the counts it
   observed in place to reconcile each side's self time (the paper's Table 2
   sum check). *)

type t = {
  encode_ns : float;  (** [Codec.encode] of one DATA datagram (payload CRC included) *)
  decode_ns : float;  (** [Codec.decode] of the same bytes (CRC verified) *)
  encode_alloc_words : float;
  decode_alloc_words : float;
  ack_codec_ns : float;  (** encode + decode, mean of the ACK and NACK shapes *)
  crc32_ns_per_byte : float;
  flow_ns_per_datagram : float;  (** [Flow.create] + [on_message] over REQ+DATA *)
  timers_ns_per_op : float;  (** one [Timers.add] plus one [Timers.pop] at the given depth *)
  netem_ns_per_datagram : float;  (** [Netem.tx_bytes] under [lossy2] *)
}

let min_batch_ns = 10_000_000

(* Median over five batches, each at least [min_batch_ns] long. *)
let ns_per_op f =
  let batch iters =
    let t0 = Clock.now_ns () in
    for _ = 1 to iters do
      f ()
    done;
    Clock.now_ns () - t0
  in
  let rec calibrate iters =
    if batch iters >= min_batch_ns then iters else calibrate (iters * 2)
  in
  let iters = calibrate 1 in
  Pct.median (List.init 5 (fun _ -> float_of_int (batch iters) /. float_of_int iters))

let alloc_words_per_op f =
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let suite = Protocol.Suite.Blast Protocol.Blast.Go_back_n

(* The REQ and DATA datagrams a sender emits for [input], as decoded
   messages: what the receiving flow is fed. *)
let transfer_messages ~input ~packet_bytes =
  let len = String.length input in
  let total = (len + packet_bytes - 1) / packet_bytes in
  let req =
    {
      (Packet.Message.req ~transfer_id:1 ~total) with
      Packet.Message.payload =
        Sockets.Suite_codec.encode
          ~data_crc:(Packet.Checksum.crc32_string input)
          ~packet_bytes ~total_bytes:len suite;
    }
  in
  let data =
    Array.init total (fun seq ->
        let pos = seq * packet_bytes in
        Packet.Message.data ~transfer_id:1 ~seq ~total
          ~payload:(String.sub input pos (min packet_bytes (len - pos))))
  in
  (req, data)

let flow_run ~tuning (req, data) () =
  let counters = Protocol.Counters.create () in
  let probe = Obs.Probe.create ~lane:"bench" ~counters () in
  match Sockets.Flow.create ~tuning ~probe ~counters ~now:0 req with
  | Error _ -> failwith "isolated flow: REQ refused"
  | Ok (flow, _) ->
      Array.iter (fun m -> ignore (Sockets.Flow.on_message flow ~now:0 m : Sockets.Flow.action list)) data;
      if Sockets.Flow.completed flow = None then failwith "isolated flow: transfer incomplete"

let measure ~input ~packet_bytes ~tuning ~timers_depth =
  let payload = String.sub input 0 (min packet_bytes (String.length input)) in
  let total = (String.length input + packet_bytes - 1) / packet_bytes in
  let msg = Packet.Message.data ~transfer_id:1 ~seq:0 ~total ~payload in
  let wire = Packet.Codec.encode msg in
  let encode () = ignore (Sys.opaque_identity (Packet.Codec.encode msg)) in
  let decode () = ignore (Sys.opaque_identity (Packet.Codec.decode wire)) in
  let ack = Packet.Message.ack ~transfer_id:1 ~seq:total ~total in
  let nack = Packet.Message.nack ~transfer_id:1 ~first_missing:(total / 2) ~total () in
  let ack_codec () =
    ignore (Sys.opaque_identity (Packet.Codec.decode (Packet.Codec.encode ack)));
    ignore (Sys.opaque_identity (Packet.Codec.decode (Packet.Codec.encode nack)))
  in
  let crc () = ignore (Sys.opaque_identity (Packet.Checksum.crc32_string payload)) in
  let messages = transfer_messages ~input ~packet_bytes in
  let timers = Server.Timers.create () in
  let rng = Stats.Rng.create ~seed:1 in
  let offsets = Array.init 1024 (fun _ -> 1 + Stats.Rng.int rng 1_000_000) in
  let clock = ref 0 and next = ref 0 in
  let timer_op () =
    next := (!next + 1) land 1023;
    Server.Timers.add timers ~deadline:(!clock + offsets.(!next)) ();
    match Server.Timers.pop timers with Some (d, ()) -> clock := d | None -> ()
  in
  for _ = 1 to timers_depth do
    timer_op ();
    Server.Timers.add timers ~deadline:(!clock + offsets.(!next)) ()
  done;
  let netem = Faults.Netem.create ~seed:1 Faults.Scenario.lossy2 in
  let netem_op () = ignore (Sys.opaque_identity (Faults.Netem.tx_bytes netem wire)) in
  {
    encode_ns = ns_per_op encode;
    decode_ns = ns_per_op decode;
    encode_alloc_words = alloc_words_per_op encode;
    decode_alloc_words = alloc_words_per_op decode;
    ack_codec_ns = ns_per_op ack_codec /. 2.;
    crc32_ns_per_byte = ns_per_op crc /. float_of_int (String.length payload);
    flow_ns_per_datagram =
      ns_per_op (flow_run ~tuning messages) /. float_of_int (1 + Array.length (snd messages));
    timers_ns_per_op = ns_per_op timer_op;
    netem_ns_per_datagram = ns_per_op netem_op;
  }

(* The traced run's instrumentation, built entirely outside the program: a
   wrapper around the [Sockets.Transport.t] closures the benchmark hands to
   [Server.Engine.create] and [Sockets.Peer.send_via], one span per call and
   one per [Peer.send_via], plus per-domain CPU and allocation deltas. A side
   (sender or engine) is written by the one domain that owns it and read by
   the main domain only after that domain has been joined. *)

type op = Send | Flush | Recv | Poll | Transfer

let op_index = function Send -> 0 | Flush -> 1 | Recv -> 2 | Poll -> 3 | Transfer -> 4
let op_names = [| "send"; "flush"; "recv"; "poll"; "transfer" |]

(* At most this many spans are kept per side; counters stay exact past it. *)
let span_cap = 1 lsl 22

type side = {
  name : string;
  batch_capacity : int option;
      (** [Some c]: flushes submit [sendmmsg] trains of at most [c]
          datagrams, so a flush of n queued datagrams costs ceil (n / c)
          syscalls; [None]: one submission per non-empty flush *)
  suspending_recv : bool;
      (** under virtual time a blocking [recv] suspends the simulated process
          and other processes run inside the call, so its duration is not
          this side's cost: such recvs are counted but not timed *)
  recording : bool Atomic.t;
  mutable starts : int array;
  mutable durs : int array;
  mutable infos : int array;  (** op index lor (datagrams lsl 3) *)
  mutable len : int;
  mutable dropped : int;
  calls : int array;
  time_ns : int array;
  datagrams : int array;
  mutable queued : int;
  mutable nonempty_flushes : int;
  mutable tx_submissions : int;
  mutable recv_cpu_ns : int;
  mutable data_sent : int;
  mutable transfer_start : int;
  mutable saw_data : bool;
  mutable handshake_ns : int list;
  mutable last_recv_return : int;
  mutable wakeup_work_ns : int list;
      (** suspending sides: wall time from a recv's return to the next recv
          call — the work one wakeup does, since a simulated process runs
          uninterrupted until it suspends again *)
  mutable began : bool;
  mutable wall0 : int;
  mutable cpu0 : int;
  mutable words0 : float;
  mutable wall_ns : int;
  mutable cpu_ns : int;
  mutable alloc_words : float;
}

let create_side ?(suspending_recv = false) ?batch_capacity name =
  {
    name;
    batch_capacity;
    suspending_recv;
    recording = Atomic.make false;
    starts = Array.make 4096 0;
    durs = Array.make 4096 0;
    infos = Array.make 4096 0;
    len = 0;
    dropped = 0;
    calls = Array.make 5 0;
    time_ns = Array.make 5 0;
    datagrams = Array.make 5 0;
    queued = 0;
    nonempty_flushes = 0;
    tx_submissions = 0;
    recv_cpu_ns = 0;
    data_sent = 0;
    transfer_start = 0;
    saw_data = false;
    handshake_ns = [];
    last_recv_return = 0;
    wakeup_work_ns = [];
    began = false;
    wall0 = 0;
    cpu0 = 0;
    words0 = 0.;
    wall_ns = 0;
    cpu_ns = 0;
    alloc_words = 0.;
  }

let start_recording side = Atomic.set side.recording true

(* Window edges: must run on the side's own domain, since CPU time and minor
   words are per domain. *)
let begin_window side =
  side.began <- true;
  side.wall0 <- Clock.now_ns ();
  side.cpu0 <- Clock.thread_cpu_ns ();
  side.words0 <- Gc.minor_words ()

let end_window side =
  if side.began then begin
    side.wall_ns <- Clock.now_ns () - side.wall0;
    side.cpu_ns <- Clock.thread_cpu_ns () - side.cpu0;
    side.alloc_words <- Gc.minor_words () -. side.words0
  end

let grow a = Array.append a (Array.make (Array.length a) 0)

let record side op t0 t1 n =
  let i = op_index op in
  side.calls.(i) <- side.calls.(i) + 1;
  side.time_ns.(i) <- side.time_ns.(i) + (t1 - t0);
  side.datagrams.(i) <- side.datagrams.(i) + n;
  if side.len >= span_cap then side.dropped <- side.dropped + 1
  else begin
    if side.len = Array.length side.starts then begin
      side.starts <- grow side.starts;
      side.durs <- grow side.durs;
      side.infos <- grow side.infos
    end;
    side.starts.(side.len) <- t0;
    side.durs.(side.len) <- t1 - t0;
    side.infos.(side.len) <- i lor (n lsl 3);
    side.len <- side.len + 1
  end

let active side =
  Atomic.get side.recording
  && begin
       if not side.began then begin_window side;
       true
     end

let data_kind = Packet.Kind.to_byte Packet.Kind.Data

let wrap side (t : Sockets.Transport.t) : Sockets.Transport.t =
  let send ~peer ~on_outcome b =
    if active side then begin
      let t0 = Clock.now_ns () in
      t.Sockets.Transport.send ~peer ~on_outcome b;
      let t1 = Clock.now_ns () in
      record side Send t0 t1 1;
      side.queued <- side.queued + 1;
      if Bytes.length b > 3 && Bytes.get_uint8 b 3 = data_kind then begin
        side.data_sent <- side.data_sent + 1;
        if side.transfer_start > 0 && not side.saw_data then begin
          side.saw_data <- true;
          side.handshake_ns <- (t0 - side.transfer_start) :: side.handshake_ns
        end
      end
    end
    else t.Sockets.Transport.send ~peer ~on_outcome b
  in
  let flush () =
    if active side then begin
      let n = side.queued in
      side.queued <- 0;
      if n > 0 then begin
        side.nonempty_flushes <- side.nonempty_flushes + 1;
        side.tx_submissions <-
          side.tx_submissions + (match side.batch_capacity with Some c -> (n + c - 1) / c | None -> 1)
      end;
      let t0 = Clock.now_ns () in
      t.Sockets.Transport.flush ();
      record side Flush t0 (Clock.now_ns ()) n
    end
    else t.Sockets.Transport.flush ()
  in
  let recv ~timeout_ns =
    if active side then
      if side.suspending_recv then begin
        if side.last_recv_return > 0 then
          side.wakeup_work_ns <- (Clock.now_ns () - side.last_recv_return) :: side.wakeup_work_ns;
        let r = t.Sockets.Transport.recv ~timeout_ns in
        side.last_recv_return <- Clock.now_ns ();
        let i = op_index Recv in
        side.calls.(i) <- side.calls.(i) + 1;
        (match r with `Datagram _ -> side.datagrams.(i) <- side.datagrams.(i) + 1 | `Timeout -> ());
        r
      end
      else begin
        let c0 = Clock.thread_cpu_ns () in
        let t0 = Clock.now_ns () in
        let r = t.Sockets.Transport.recv ~timeout_ns in
        let t1 = Clock.now_ns () in
        side.recv_cpu_ns <- side.recv_cpu_ns + (Clock.thread_cpu_ns () - c0);
        record side Recv t0 t1 (match r with `Datagram _ -> 1 | `Timeout -> 0);
        r
      end
    else t.Sockets.Transport.recv ~timeout_ns
  in
  let poll () =
    if active side then begin
      let t0 = Clock.now_ns () in
      let r = t.Sockets.Transport.poll () in
      record side Poll t0 (Clock.now_ns ()) (match r with `Datagram _ -> 1 | `Empty -> 0);
      r
    end
    else t.Sockets.Transport.poll ()
  in
  { t with Sockets.Transport.send; flush; recv; poll }

(* One span per [Peer.send_via] call; also marks where the handshake starts. *)
let transfer side f =
  if active side then begin
    let t0 = Clock.now_ns () in
    side.transfer_start <- t0;
    side.saw_data <- false;
    let r = f () in
    side.transfer_start <- 0;
    record side Transfer t0 (Clock.now_ns ()) 0;
    r
  end
  else f ()

let calls side op = side.calls.(op_index op)
let time_ns side op = side.time_ns.(op_index op)
let datagrams side op = side.datagrams.(op_index op)

(* Time inside transport calls that is this side's own work or waiting —
   everything except suspending recvs, which are not timed. *)
let transport_ns side =
  time_ns side Send + time_ns side Flush + time_ns side Recv + time_ns side Poll

let received side = datagrams side Recv + datagrams side Poll

(* Blocked waiting: recv time the thread spent off the CPU. *)
let wait_ns side = max 0 (time_ns side Recv - side.recv_cpu_ns)

(* Receive-path cost per datagram: poll time plus the on-CPU part of timed
   recvs, over the datagrams those calls returned. *)
let rx_ns_per_datagram side =
  let timed_recv = if side.suspending_recv then 0 else datagrams side Recv in
  let cpu = time_ns side Poll + (time_ns side Recv - wait_ns side) in
  if datagrams side Poll + timed_recv = 0 then 0.
  else float_of_int cpu /. float_of_int (datagrams side Poll + timed_recv)

(* Spans as CSV, one line per call: side, op, start (ns, monotonic), duration
   (ns), datagrams moved. *)
let write_spans path sides =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "side,op,start_ns,dur_ns,datagrams\n";
      List.iter
        (fun side ->
          for i = 0 to side.len - 1 do
            let info = side.infos.(i) in
            Printf.fprintf oc "%s,%s,%d,%d,%d\n" side.name op_names.(info land 7)
              side.starts.(i) side.durs.(i) (info lsr 3)
          done)
        sides)

let span_count side = side.len + side.dropped

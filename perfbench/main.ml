(* The repository benchmark: one workload per run.

     main.exe --workload bulk|small|fanin_lossy --seed N --seconds S --trace 0|1

   Untraced (--trace 0) it prints every end-to-end metric; traced (--trace 1)
   every per-layer metric, the Table 2 breakdown and the tracing overhead.
   The last line of standard output is the JSON result. Any corrupt or
   unpaired delivery, or a simulation invariant violation, exits 1.

     main.exe --setup-probe WORKLOAD --seed N

   is how an untraced run starts the fresh processes it times set-ups in. *)

open Perfbench

let usage =
  "main.exe --workload bulk|small|fanin_lossy --seed N --seconds S --trace 0|1"

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline ("usage: " ^ usage);
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        if !seed = None then fail ("bad --seed " ^ v);
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0. then Some s else None);
        if !seconds = None then fail ("bad --seconds " ^ v);
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | arg :: _ -> fail ("unexpected argument " ^ arg)
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t -> (w, s, sec, t)
  | _ -> fail "missing argument"

let params workload =
  match workload with
  | "bulk" | "small" ->
      let shape = if workload = "bulk" then Udp_load.bulk else Udp_load.small in
      [
        ("topology", Obs.Json.String "1 closed-loop sender (Peer.send, one reused socket) -> 1 engine domain, UDP loopback");
        ("transfer_bytes", Obs.Json.Int shape.Udp_load.bytes);
        ("packet_bytes", Obs.Json.Int Udp_load.packet_bytes);
        ("suite", Obs.Json.String "blast go-back-n");
        ("inputs", Obs.Json.Int shape.Udp_load.inputs);
        ("tuning", Obs.Json.String (Protocol.Tuning.to_string Udp_load.tuning));
        ("max_flows", Obs.Json.Int 64);
        ("setup_processes", Obs.Json.Int Runs.setup_processes);
        ("setups_per_process", Obs.Json.Int Udp_load.setups);
      ]
  | _ ->
      [
        ("topology", Obs.Json.String "Dst.Harness.run: 32 simulated senders -> 1 engine, memnet, virtual time, one domain");
        ("senders", Obs.Json.Int Fanin.senders);
        ("transfers_per_sender", Obs.Json.Int Fanin.transfers);
        ("distinct_trials", Obs.Json.Int Fanin.distinct_trials);
        ("transfer_bytes", Obs.Json.String (Printf.sprintf "%d..%d" Fanin.bytes_min Fanin.bytes_max));
        ("packet_bytes", Obs.Json.Int Fanin.packet_bytes);
        ("max_flows", Obs.Json.Int Fanin.max_flows);
        ("faults", Obs.Json.String "lossy2");
        ("churn", Obs.Json.String "steady");
        ("tuning", Obs.Json.String (Protocol.Tuning.to_string Fanin.tuning));
      ]

(* Run provenance; a run whose I/O path fell back to select or to
   one-datagram sends is flagged. *)
let provenance ~workload ~seed ~seconds ~trace =
  let poller = Sockets.Poller.create () in
  let backend = Sockets.Poller.backend poller in
  Sockets.Poller.close poller;
  let batch_kernel = Sockets.Batch.kernel_support () in
  let forced = Sockets.Batch.env_force_fallback () in
  let fell_back = backend = `Select || (not batch_kernel) || forced in
  let j =
    Obs.Json.Obj
      [
        ("workload", Obs.Json.String workload);
        ("seed", Obs.Json.Int seed);
        ("seconds", Obs.Json.Float seconds);
        ("trace", Obs.Json.Bool trace);
        ("nproc", Obs.Json.Int (Clock.online_cpus ()));
        ("recommended_domain_count", Obs.Json.Int (Domain.recommended_domain_count ()));
        ("poller_backend", Obs.Json.String (match backend with `Epoll -> "epoll" | `Select -> "select"));
        ("batch_kernel_support", Obs.Json.Bool batch_kernel);
        ("batch_env_force_fallback", Obs.Json.Bool forced);
        ("io_fallback", Obs.Json.Bool fell_back);
        ("ocaml_version", Obs.Json.String Sys.ocaml_version);
        ("params", Obs.Json.Obj (params workload));
      ]
  in
  print_endline ("provenance " ^ Obs.Json.to_string j);
  if fell_back && workload <> "fanin_lossy" then
    print_endline "WARNING: the I/O path fell back (select wait or one-datagram sends); figures are not comparable"

(* Traced runs leave their spans and per-layer metrics here, one file of
   each per workload, overwritten by the next traced run. *)
let out_path workload what ext =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "%s-%s.%s" what workload ext)

(* The child processes that time set-ups ([Runs.setup_samples_in_processes])
   print their set-up times, in seconds, on one line. *)
let setup_probe () =
  match Sys.argv with
  | [| _; "--setup-probe"; workload; "--seed"; seed |] ->
      let samples = Runs.setup_samples workload ~seed:(int_of_string seed) in
      print_endline (String.concat " " (List.map (Printf.sprintf "%.9f") samples));
      exit 0
  | _ -> ()

let () =
  setup_probe ();
  let workload, seed, seconds, trace = parse Sys.argv in
  let other_setups () = Runs.setup_samples_in_processes workload ~seed in
  let run =
    match (workload, trace) with
    | "bulk", false -> fun () -> Runs.udp_e2e Udp_load.bulk ~seed ~seconds ~other_setups:(other_setups ())
    | "small", false -> fun () -> Runs.udp_e2e Udp_load.small ~seed ~seconds ~other_setups:(other_setups ())
    | "fanin_lossy", false -> fun () -> Runs.fanin_e2e ~seed ~seconds
    | "bulk", true -> fun () -> Runs.udp_traced Udp_load.bulk ~seed ~seconds ~spans_path:(out_path workload "spans" "csv")
    | "small", true -> fun () -> Runs.udp_traced Udp_load.small ~seed ~seconds ~spans_path:(out_path workload "spans" "csv")
    | "fanin_lossy", true -> fun () -> Runs.fanin_traced ~seed ~spans_path:(out_path workload "spans" "csv")
    | w, _ -> fail ("unknown workload " ^ w)
  in
  provenance ~workload ~seed ~seconds ~trace;
  let r = run () in
  List.iter (fun e -> print_endline ("ERROR: " ^ e)) r.Runs.errors;
  let correct = r.Runs.errors = [] in
  let defs = if trace then Metrics.per_layer else Metrics.end_to_end in
  if r.Runs.values <> [] then begin
    let line =
      Metrics.result_line ~correct ~attempted:(max 1 r.Runs.attempted) ~failed:r.Runs.failed defs
        r.Runs.values
    in
    if trace then Out_channel.with_open_bin (out_path workload "layers" "json") (fun oc -> output_string oc (line ^ "\n"));
    print_endline line
  end;
  if not correct then exit 1

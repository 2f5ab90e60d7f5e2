(* Self-tests of the benchmark: the percentile rule, the metric registry
   against BENCHMARK.json, the delivery checks, and a short smoke run of
   each workload that must end with zero corrupt or unpaired deliveries. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let test_percentile_rule () =
  List.iter
    (fun (n, p) -> check (Printf.sprintf "tail percentile of %d samples is p%d" n p) (Pct.tail_percentile n = p))
    [ (1000, 99); (999, 98); (2000, 99); (200, 95); (60, 83); (20, 50); (5, 50) ];
  List.iter
    (fun n ->
      let sorted = Array.init n (fun i -> float_of_int (i + 1)) in
      let p = Pct.tail_percentile n in
      let v = Pct.nearest_rank sorted p in
      let beyond = Array.fold_left (fun a x -> if x > v then a + 1 else a) 0 sorted in
      check (Printf.sprintf "n=%d: p%d has >= %d samples beyond it" n p Pct.min_beyond)
        (beyond >= Pct.min_beyond);
      if p < 99 then begin
        let next = Pct.nearest_rank sorted (p + 1) in
        let beyond = Array.fold_left (fun a x -> if x > next then a + 1 else a) 0 sorted in
        check (Printf.sprintf "n=%d: p%d is the highest such percentile" n p) (beyond < Pct.min_beyond)
      end)
    [ 20; 60; 137; 999; 1000; 5000 ];
  let tied = [| 1.; 2.; 2.; 2.; 3. |] in
  check "tied samples: median interpolated across the tie's class" (Pct.percentile tied 50 = 2.);
  let quantized = Array.init 100 (fun i -> if i < 30 then 1.1 else if i < 80 then 1.2 else 1.3) in
  let m = Pct.percentile quantized 50 in
  check "quantized samples: median inside the tied value's class" (m > 1.15 && m < 1.25 && m <> 1.2);
  let s = Pct.summarize (Array.init 1000 (fun i -> float_of_int (1000 - i))) in
  check "summary of 1..1000: p50 = 500, p99 = 990" (s.Pct.p50 = 500. && s.Pct.tail_p = 99 && s.Pct.tail = 990.)

let test_registry () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match Obs.Json.parse text with
  | Error e -> check ("BENCHMARK.json parses: " ^ e) false
  | Ok j ->
      let entries key =
        Option.value ~default:[] (Option.bind (Obs.Json.member key j) Obs.Json.to_list)
        |> List.map (fun m ->
               let str k = Option.value ~default:"" (Option.bind (Obs.Json.member k m) Obs.Json.to_str) in
               (str "name", str "unit", str "better"))
      in
      let ours defs =
        List.map (fun d -> (d.Metrics.name, d.Metrics.unit, Metrics.better_name d.Metrics.better)) defs
      in
      check "end_to_end names, units and directions match BENCHMARK.json"
        (entries "end_to_end" = ours Metrics.end_to_end);
      check "per_layer names, units and directions match BENCHMARK.json"
        (entries "per_layer" = ours Metrics.per_layer);
      let workloads =
        Option.value ~default:[] (Option.bind (Obs.Json.member "workloads" j) Obs.Json.to_list)
        |> List.filter_map (fun w -> Option.bind (Obs.Json.member "name" w) Obs.Json.to_str)
      in
      check "workloads are bulk, small, fanin_lossy" (workloads = [ "bulk"; "small"; "fanin_lossy" ])

let test_result_line () =
  let values = List.map (fun d -> (d.Metrics.name, 1.5)) Metrics.end_to_end in
  let line = Metrics.result_line ~correct:true ~attempted:3 ~failed:1 Metrics.end_to_end values in
  check "result line is JSON with the four keys"
    (match Obs.Json.parse line with
    | Ok (Obs.Json.Obj kvs) -> List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ]
    | _ -> false);
  check "a missing metric is refused"
    (match Metrics.result_line ~correct:true ~attempted:1 ~failed:0 Metrics.end_to_end (List.tl values) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The pairing check must catch what it exists to catch. *)
let test_verify_catches () =
  let w = Udp_load.empty_window () in
  w.Udp_load.ok_ids <- [ 1000; 1001 ];
  let event id intact =
    {
      Udp_load.id;
      outcome = Protocol.Action.Success;
      integrity = Sockets.Flow.Verified;
      intact;
      bytes = 1;
      started_ns = 0;
      finished_ns = 1;
    }
  in
  check "intact paired deliveries pass" (Udp_load.verify w [ event 1000 true; event 1001 true ] = []);
  check "a corrupt delivery is reported" (Udp_load.verify w [ event 1000 true; event 1001 false ] <> []);
  check "an unpaired success is reported" (Udp_load.verify w [ event 1000 true ] <> [])

let test_smoke () =
  let bulk = Runs.udp_e2e Udp_load.bulk ~seed:7 ~seconds:0.2 ~other_setups:[] in
  check "bulk smoke: verified, no corrupt or unpaired delivery"
    (bulk.Runs.errors = [] && bulk.Runs.attempted > 0 && bulk.Runs.failed = 0);
  let small = Runs.udp_e2e Udp_load.small ~seed:7 ~seconds:0.2 ~other_setups:[] in
  check "small smoke: verified, refusals retried, no corrupt or unpaired delivery"
    (small.Runs.errors = [] && small.Runs.attempted > 0 && small.Runs.failed = 0);
  let trial = Dst.Harness.run (Fanin.trial_config ~seed:7 0) in
  let view = Fanin.sender_view trial in
  check "fanin_lossy smoke: no violations, transfers verified"
    (trial.Dst.Harness.violations = [] && view.Fanin.ok > 0
    && view.Fanin.ok = trial.Dst.Harness.completed
    && trial.Dst.Harness.completed = trial.Dst.Harness.attempted)

let () =
  test_percentile_rule ();
  test_registry ();
  test_result_line ();
  test_verify_catches ();
  test_smoke ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end

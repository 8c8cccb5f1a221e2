(* Tests of the end-to-end benchmark: its statistics, its oracle (which
   must reject tampered results) and a --smoke run of all four workloads.

   Run by dune runtest as [test_e2e.exe E2E_EXE BENCHMARK_JSON]. *)

open E2e_bench

let close ?(eps = 1e-12) a b = abs_float (a -. b) <= eps

let triple = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12))

(* --- statistics ------------------------------------------------------------- *)

let test_quartiles () =
  (* Reference values from Python: statistics.quantiles(xs, n=4). *)
  Alcotest.check triple "1..4" (1.25, 2.5, 3.75) (Sample.quartiles [ 4.; 2.; 1.; 3. ]);
  Alcotest.check triple "two values" (0.75, 1.5, 2.25) (Sample.quartiles [ 2.; 1. ]);
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Sample.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "three values" (1.0, 3.0, 5.0) (Sample.quartiles [ 5.; 1.; 3. ]);
  Alcotest.(check bool) "spread of 1..10" true
    (close (Sample.spread (List.init 10 (fun i -> float_of_int (i + 1)))) (5.5 /. 5.5))

let test_tail_rule () =
  let check n p =
    Alcotest.(check (float 0.0)) (Printf.sprintf "n=%d" n) p (Sample.tail_percentile n)
  in
  check 10 50.0;
  check 19 50.0;
  check 40 75.0;
  check 100 90.0;
  check 320 95.0;
  check 1000 99.0;
  check 10000 99.9

let test_verdicts () =
  let base = List.init 10 (fun i -> 100.0 +. float_of_int (i mod 3)) in
  let check msg expected ?(better = Sample.Lower) ?(parent = base) ~bound change =
    Alcotest.(check string) msg expected
      (Sample.verdict_name (Sample.verdict better ~bound ~parent ~change))
  in
  let shift f = List.map f base in
  check "clear win" "better" ~bound:0.05 (shift (fun x -> x -. 10.0));
  check "past the bound" "worse" ~bound:0.1 (shift (fun x -> x *. 1.2));
  check "within the bound" "unchanged" ~bound:0.1 (shift (fun x -> x +. 0.5));
  let wide = List.init 10 (fun i -> 60.0 +. (10.0 *. float_of_int i)) in
  check "spread wider than the bound" "unresolved" ~parent:wide ~bound:0.05 wide;
  check "nine pairs are not enough" "unchanged"
    ~parent:(List.filteri (fun i _ -> i < 9) base)
    ~bound:0.5 (List.init 9 (fun _ -> 90.0));
  check "higher is better" "worse" ~better:Sample.Higher ~bound:0.1 (shift (fun x -> x *. 0.8))

let test_self_time () =
  let sp rep id parent name a b = { Spans.id; name; start_s = a; end_s = b; parent; rep } in
  let rows =
    Spans.self_times
      [ sp "r" 1 0 "run" 0.0 10.0; sp "r" 2 1 "a" 1.0 3.0; sp "r" 3 1 "b" 2.0 5.0;
        sp "r" 4 3 "c" 2.5 3.0 ]
  in
  let self name = List.find_map (fun (n, _, _, s) -> if n = name then Some s else None) rows in
  Alcotest.(check (option (float 1e-9))) "overlapping children" (Some 6.0) (self "run");
  Alcotest.(check (option (float 1e-9))) "nested child" (Some 2.5) (self "b")

(* --- the oracle ------------------------------------------------------------- *)

let tuned =
  lazy
    (let model = Mlp.create (Rng.create 7) ~n_inputs:82 () in
     let rc = Rep.run_config Tuning_config.quick ~rounds:1 ~seed:3 in
     match Tuner.run rc Rep.device model (Rep.graph_of Rep.Ansor_dcgan) Tuner.Felix with
     | Ok r -> r
     | Error e -> failwith (Tuner.error_message e))

let schedules j = Check.schedules Rep.device (Rep.graph_of Rep.Ansor_dcgan) j

(* Rewrite the first task entry of a result payload. *)
let with_task0 f = function
  | Json.Obj kvs ->
    Json.Obj
      (List.map
         (function
           | "tasks", Json.List (t :: ts) -> ("tasks", Json.List (f t :: ts)) | kv -> kv)
         kvs)
  | j -> j

let with_field k g = function
  | Json.Obj kvs -> Json.Obj (List.map (fun (k', v) -> if k' = k then (k, g v) else (k', v)) kvs)
  | j -> j

let test_oracle_accepts () =
  let r = Lazy.force tuned in
  Alcotest.(check (list string)) "schedules" [] (schedules (Export.result_json r));
  Alcotest.(check (list string)) "network latency" [] (Check.network_latency r)

let test_oracle_rejects_latency () =
  let r = Lazy.force tuned in
  let j =
    with_task0 (with_field "best_latency_ms" (function Json.Num l -> Json.Num (l *. 1.5) | v -> v))
      (Export.result_json r)
  in
  Alcotest.(check bool) "tampered latency fails" true (schedules j <> []);
  let r' = { r with Tuner.final_latency_ms = r.Tuner.final_latency_ms *. (1.0 +. epsilon_float) } in
  Alcotest.(check bool) "tampered final latency fails" true (Check.network_latency r' <> [])

let test_oracle_rejects_assignment () =
  let r = Lazy.force tuned in
  let j =
    with_task0
      (with_field "assignment" (function
        | Json.Obj ((k, _) :: rest) -> Json.Obj ((k, Json.Num 7919.0) :: rest)
        | v -> v))
      (Export.result_json r)
  in
  Alcotest.(check bool) "tampered assignment fails" true (schedules j <> [])

let test_identical () =
  let failures items = List.length (Check.identical ~what:"x" items) in
  Alcotest.(check int) "equal" 0 (failures [ ("a", "1"); ("b", "1") ]);
  Alcotest.(check int) "one differs" 1 (failures [ ("a", "1"); ("b", "1"); ("c", "2") ])

(* --- the benchmark binary --------------------------------------------------- *)

let exe = ref ""
let benchmark = ref ""

let run_exe args =
  let ic = Unix.open_process_args_in !exe (Array.of_list (!exe :: args)) in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic, out)

let last_line out =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
  | l :: _ -> l
  | [] -> ""

let test_smoke () =
  let st, out = run_exe [ "--smoke"; "--benchmark"; !benchmark ] in
  Alcotest.(check bool) "exit 0" true (st = Unix.WEXITED 0);
  match Json.parse (last_line out) with
  | Error m -> Alcotest.fail ("last line is not JSON: " ^ m)
  | Ok j ->
    let b k = Option.bind (Json.find j k) Json.as_bool in
    Alcotest.(check (option bool)) "correct" (Some true) (b "correct");
    Alcotest.(check (option bool)) "marked smoke" (Some true) (b "smoke")

let test_smoke_not_recorded () =
  let st, _ = run_exe [ "--smoke"; "--benchmark"; !benchmark; "--json"; "smoke-record.json" ] in
  Alcotest.(check bool) "refused" true (st <> Unix.WEXITED 0);
  Alcotest.(check bool) "nothing written" false (Sys.file_exists "smoke-record.json")

let test_run_length_fixed () =
  let st, out = run_exe [ "--benchmark"; !benchmark; "--seconds"; "1" ] in
  Alcotest.(check bool) "refused" true (st = Unix.WEXITED 2);
  Alcotest.(check string) "no result printed" "" out

let () =
  exe :=
    if Filename.is_relative Sys.argv.(1) then Filename.concat (Sys.getcwd ()) Sys.argv.(1)
    else Sys.argv.(1);
  benchmark := Sys.argv.(2);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "e2e"
    [ ("statistics",
       [ Alcotest.test_case "quartiles match Python's" `Quick test_quartiles;
         Alcotest.test_case "percentile rule" `Quick test_tail_rule;
         Alcotest.test_case "compare verdicts" `Quick test_verdicts;
         Alcotest.test_case "span self time" `Quick test_self_time ]);
      ("oracle",
       [ Alcotest.test_case "accepts a real result" `Quick test_oracle_accepts;
         Alcotest.test_case "rejects a tampered latency" `Quick test_oracle_rejects_latency;
         Alcotest.test_case "rejects a tampered assignment" `Quick test_oracle_rejects_assignment;
         Alcotest.test_case "identical bytes" `Quick test_identical ]);
      ("smoke",
       [ Alcotest.test_case "all four workloads, shrunk" `Quick test_smoke;
         Alcotest.test_case "--json refuses smoke output" `Quick test_smoke_not_recorded;
         Alcotest.test_case "--seconds must restate run_seconds" `Quick test_run_length_fixed ]) ]

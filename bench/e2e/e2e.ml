(* End-to-end tuning benchmark.

     dune exec bench/e2e/e2e.exe -- [--workload W]... [--seed S] [--seconds N]
                                    [--trace 0|1] [--json FILE] [--smoke]
     dune exec bench/e2e/e2e.exe -- --compare PARENT.json CHANGE.json [--json OUT]

   Runs each workload (default: all four) as fresh child processes for
   BENCHMARK.json's run_seconds, checks every output, prints each metric
   with its unit and sample counts, and ends standard output with one JSON
   line: {"correct", "attempted", "failed", "metrics"}. Every run ends with
   a traced rep that the oracle checks; with --trace 1 the metrics are its
   per-layer ones, and its spans go to _e2e/trace.jsonl. See README.md in
   this directory. *)

open E2e_bench

let root = "_e2e"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("e2e: " ^ m); exit 2) fmt

let () =
  let workloads = ref [] and seed = ref 0 and seconds = ref None and trace = ref 0 in
  let json = ref None and smoke = ref false and compare = ref None in
  let benchmark = ref "BENCHMARK.json" in
  let child = ref None and child_model = ref None and dir = ref "" and cwd = ref "." in
  let model = ref "" in
  let traced = ref false and setup_only = ref false in
  let cmp_parent = ref "" in
  let specs =
    [ ("--workload", Arg.String (fun w -> workloads := !workloads @ [ w ]),
       "W  run workload W (repeatable; default: every workload of BENCHMARK.json)");
      ("--seed", Arg.Set_int seed, "S  tuning seed S, cost-model seed 1234+S (default 0)");
      ("--seconds", Arg.Float (fun s -> seconds := Some s),
       "N  measuring time per workload; must equal BENCHMARK.json's run_seconds");
      ("--trace", Arg.Set_int trace,
       "0|1  1: report the traced rep's per-layer metrics and write its spans");
      ("--json", Arg.String (fun f -> json := Some f),
       "FILE  append the run records to FILE (with --compare: write the comparison)");
      ("--smoke", Arg.Set smoke, " shrunk sizes, one rep each; the result is marked smoke");
      ("--compare",
       Arg.Tuple
         [ Arg.Set_string cmp_parent; Arg.String (fun c -> compare := Some (!cmp_parent, c)) ],
       "PARENT.json CHANGE.json  verdict per (workload, metric) from recorded runs");
      ("--benchmark", Arg.Set_string benchmark,
       "FILE  metric list and bounds (default BENCHMARK.json)");
      ("--child", Arg.String (fun w -> child := Some w), "W  (internal) run one rep of W");
      ("--child-model", Arg.String (fun d -> child_model := Some d),
       "DIR  (internal) train the warm workloads' cost model into DIR");
      ("--dir", Arg.Set_string dir, "DIR  (internal) the child's output directory");
      ("--cwd", Arg.Set_string cwd, "DIR  (internal) the child's working directory");
      ("--model", Arg.Set_string model, "FILE  (internal) the warm workloads' model");
      ("--traced", Arg.Set traced, " (internal) record spans and instruments");
      ("--setup-only", Arg.Set setup_only, " (internal) stop where the timed work begins") ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe [--workload W]... [--seed S] [--seconds N] [--trace 0|1] [--json FILE] [--smoke]\n\
     e2e.exe --compare PARENT.json CHANGE.json [--json OUT]";
  let sizes = if !smoke then Rep.smoke_sizes else Rep.full_sizes in
  match (!child, !child_model, !compare) with
  | Some w, _, _ ->
    let workload = match Rep.of_name w with Some w -> w | None -> die "unknown workload %S" w in
    Rep.run
      { Rep.workload; seed = !seed; dir = !dir; cwd = !cwd; model_path = !model; traced = !traced;
        setup_only = !setup_only; sizes }
  | None, Some d, _ -> Rep.build_model ~smoke:!smoke ~dir:d
  | None, None, Some (parent, change) ->
    let spec = match Bench.load_spec !benchmark with Ok s -> s | Error m -> die "%s" m in
    let json_out = Bench.compare ~spec ~parent ~change in
    Option.iter
      (fun f ->
        Out_channel.with_open_bin f (fun oc ->
            output_string oc (Json.to_string json_out ^ "\n")))
      !json
  | None, None, None ->
    let spec = match Bench.load_spec !benchmark with Ok s -> s | Error m -> die "%s" m in
    if !smoke && !json <> None then die "--json refuses to record a --smoke run";
    if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
    let trace = !trace = 1 in
    let names = if !workloads = [] then spec.Bench.workloads else !workloads in
    let workload w = match Rep.of_name w with Some w -> w | None -> die "unknown workload %S" w in
    let workloads = List.map workload names in
    (* The run length is the benchmark's, the same on every commit it
       compares; --seconds may only restate it. *)
    let run_seconds = float_of_int spec.Bench.run_seconds in
    Option.iter
      (fun s ->
        if s <> run_seconds then
          die "--seconds %g: BENCHMARK.json sets run_seconds %g" s run_seconds)
      !seconds;
    let seconds = run_seconds in
    (* The oracle's schedule rebuild must compile afresh. *)
    Pack.set_disk_cache None;
    Rep.mkdir_p root;
    let outcomes =
      List.map
        (fun workload ->
          let o = Bench.run_workload ~root ~workload ~seed:!seed ~seconds ~trace ~smoke:!smoke in
          Bench.print_outcome ~spec ~trace o;
          o)
        workloads
    in
    (* The smoke run covers every workload: each per-layer metric must
       come from at least one of their traced reps. *)
    let uncovered = if !smoke then Bench.uncovered ~spec outcomes else [] in
    List.iter (fun m -> Printf.printf "no workload reports per-layer metric %s\n" m) uncovered;
    let spans = List.concat_map (fun o -> o.Bench.spans) outcomes in
    if spans <> [] then begin
      let path = Filename.concat root "trace.jsonl" in
      Spans.write_jsonl path spans;
      Printf.printf "\nwrote %d spans to %s\n" (List.length spans) path
    end;
    Option.iter
      (fun f ->
        Bench.append_runs f
          (List.map (Bench.run_record ~spec ~seed:!seed ~seconds ~trace) outcomes))
      !json;
    let line = Bench.result_line ~spec ~trace ~smoke:!smoke outcomes in
    print_endline (Json.to_line line);
    exit (if List.for_all (fun o -> o.Bench.correct) outcomes && uncovered = [] then 0 else 1)

(* The benchmark's parent process: runs each workload as a series of
   child reps for a fixed measuring time, checks every output, and
   reduces what the children saw to the metrics BENCHMARK.json names.

   BENCHMARK.json is the one list of metric names, units, directions and
   bounds; a metric it names that this file cannot compute is an error,
   not a silent gap. *)

(* --- the metric list ----------------------------------------------------------- *)

type metric = { name : string; unit_ : string; better : Sample.better; bound : float option }

type spec = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let load_spec path =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error m -> Error m
  in
  let* j = Json.parse text in
  let str k j = Option.bind (Json.find j k) Json.as_string in
  let list k j = Option.value ~default:[] (Option.bind (Json.find j k) Json.as_list) in
  let metric j =
    match (str "name" j, str "unit" j, Option.bind (str "better" j) Sample.better_of_string) with
    | Some name, Some unit_, Some better ->
      Ok { name; unit_; better; bound = Option.bind (Json.find j "bound") Json.as_float }
    | _ -> Error (path ^ ": malformed metric entry")
  in
  let metrics k =
    List.fold_right
      (fun j acc -> Result.bind acc (fun l -> Result.map (fun m -> m :: l) (metric j)))
      (list k j) (Ok [])
  in
  let* end_to_end = metrics "end_to_end" in
  let* per_layer = metrics "per_layer" in
  Ok
    { run_seconds = Option.value ~default:10 (Option.bind (Json.find j "run_seconds") Json.as_int);
      workloads = List.filter_map (str "name") (list "workloads" j);
      end_to_end;
      per_layer }

(* --- child processes ------------------------------------------------------------ *)

let now = Unix.gettimeofday

let exe =
  lazy
    (let e = Sys.executable_name in
     if Filename.is_relative e then Filename.concat (Sys.getcwd ()) e else e)

(* Children never see FELIX_* settings: every rep runs the library's
   defaults, whatever the caller's shell exports. *)
let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"FELIX_" kv))
  |> Array.of_list

(* Run the benchmark binary as a child with [args]; its output goes to
   [log]. Returns once the child has exited. *)
let spawn args ~log =
  let exe = Lazy.force exe in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close out; Unix.close null) (fun () ->
        Unix.create_process_env exe (Array.of_list (exe :: args)) (child_env ()) null out out)
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "exited %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "killed by signal %d" n)

let log_tail path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s ->
    let n = String.length s in
    String.sub s (max 0 (n - 2000)) (min n 2000)
  | exception Sys_error _ -> ""

(* --- one rep, as the parent sees it ----------------------------------------------- *)

type rep = {
  label : string;
  setup_s : float;  (** spawn to ready: process start, model load, graph, daemon *)
  duration_s : float;  (** spawn to exit *)
  job_s : float list;
  window_s : float list;
  round_ms : float list;
  finals : float list;
  peak_rss_mb : float;
  attempted : int;
  failed : int;
  errors : string list;
  results : (string * string * string) list;
  result_files : (string * string) list;
  layers : (string * float) list;
  spans_file : string;
}

let parse_rep ~label ~setup_s ~duration_s ~dir j =
  let num k = Option.value ~default:0.0 (Option.bind (Json.find j k) Json.as_float) in
  let list k = Option.value ~default:[] (Option.bind (Json.find j k) Json.as_list) in
  let floats k = List.filter_map Json.as_float (list k) in
  let str k j = Option.value ~default:"" (Option.bind (Json.find j k) Json.as_string) in
  { label; setup_s = setup_s (num "t_ready"); duration_s; job_s = floats "job_s";
    window_s = floats "window_s"; round_ms = floats "round_ms"; finals = floats "final_latency_ms";
    peak_rss_mb = num "peak_rss_mb"; attempted = int_of_float (num "attempted");
    failed = int_of_float (num "failed");
    errors = List.filter_map Json.as_string (list "errors");
    results =
      List.map
        (fun r -> (str "group" r, label ^ " " ^ str "label" r, str "digest" r))
        (list "results");
    result_files = List.map (fun r -> (str "group" r, str "path" r)) (list "result_files");
    layers =
      (match Json.find j "layers" with
      | Some (Json.Obj kvs) ->
        List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.as_float v)) kvs
      | _ -> []);
    spans_file = Filename.concat dir "spans.jsonl" }

let failed_rep ~label ~duration_s msg =
  { label; setup_s = 0.0; duration_s; job_s = []; window_s = []; round_ms = []; finals = [];
    peak_rss_mb = 0.0; attempted = 1; failed = 1; errors = [ label ^ ": " ^ msg ]; results = [];
    result_files = []; layers = []; spans_file = "" }

type ctx = {
  workload : Rep.workload;
  seed : int;
  smoke : bool;
  model_path : string;  (** the shared warm model *)
  run_dir : string;
}

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* Each cold rep runs in an empty directory of its own; the reps of a
   warm workload share one whose [_artifacts/] holds the model, as a
   user's working directory would. *)
let shared_work ctx = Filename.concat ctx.run_dir "work"

let work_dir ctx ~dir =
  match ctx.workload with
  | Rep.Felix_resnet50 | Rep.Ansor_dcgan -> shared_work ctx
  | Rep.Cold_start -> Filename.concat dir "work"
  | Rep.Served -> dir

let child_model ctx =
  match ctx.workload with
  | Rep.Felix_resnet50 | Rep.Ansor_dcgan ->
    Rep.model_file (Filename.concat (shared_work ctx) "_artifacts")
  | Rep.Cold_start | Rep.Served -> ctx.model_path

let run_rep ctx ~label ?(traced = false) ?(setup_only = false) () =
  let dir = absolute (Filename.concat ctx.run_dir label) in
  Rep.mkdir_p dir;
  let cwd = absolute (work_dir ctx ~dir) in
  Rep.mkdir_p cwd;
  let log = Filename.concat dir "child.log" in
  let args =
    [ "--child"; Rep.name ctx.workload; "--seed"; string_of_int ctx.seed; "--dir"; dir;
      "--cwd"; cwd; "--model"; absolute (child_model ctx) ]
    @ (if traced then [ "--traced" ] else [])
    @ (if setup_only then [ "--setup-only" ] else [])
    @ if ctx.smoke then [ "--smoke" ] else []
  in
  let t0 = now () in
  let st = spawn args ~log in
  let duration_s = now () -. t0 in
  match st with
  | Error m -> failed_rep ~label ~duration_s (m ^ "\n" ^ log_tail log)
  | Ok () -> (
    let path = Filename.concat dir "rep.json" in
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> parse_rep ~label ~setup_s:(fun t_ready -> t_ready -. t0) ~duration_s ~dir j
    | Error m -> failed_rep ~label ~duration_s ("rep.json: " ^ m)
    | exception Sys_error m -> failed_rep ~label ~duration_s m)

(* The warm workloads' cost model, trained once per working directory
   (the smoke run's shrunk one is cheap and always retrained). *)
let ensure_model ctx =
  if Sys.file_exists ctx.model_path && not ctx.smoke then Ok ()
  else begin
    let dir = Filename.dirname ctx.model_path in
    Rep.mkdir_p dir;
    let log = Filename.concat dir "child.log" in
    Printf.printf "[setup] training the %s cost model into %s ...\n%!"
      Rep.device.Device.device_name dir;
    match spawn ([ "--child-model"; dir ] @ if ctx.smoke then [ "--smoke" ] else []) ~log with
    | Ok () when Sys.file_exists ctx.model_path -> Ok ()
    | Ok () -> Error "model child wrote no model"
    | Error m -> Error (m ^ "\n" ^ log_tail log)
  end

(* --- one workload -------------------------------------------------------------- *)

type outcome = {
  o_workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;
  values : (string * float) list;  (** every computable metric *)
  samples : (string * float list) list;  (** the timing samples behind them *)
  self_times : (string * int * float * float) list;
  spans : Spans.span list;
}

let e2e_values ~setups (reps : rep list) =
  let all f = List.concat_map f reps in
  let jobs = all (fun r -> r.job_s) and rounds = all (fun r -> r.round_ms) in
  let p50 = Sample.percentile_or_zero 50.0 in
  let finals = match reps with r :: _ -> r.finals | [] -> [] in
  ( [ ("setup_s", p50 setups);
      ("wall_s", p50 jobs);
      ("round_ms_p50", p50 rounds);
      ("jobs_per_s",
       (let t = List.fold_left ( +. ) 0.0 (all (fun r -> r.window_s)) in
        if t > 0.0 then float_of_int (List.length jobs) /. t else 0.0));
      ("final_latency_ms", match finals with f :: _ -> f | [] -> 0.0);
      ("peak_rss_mb", p50 (List.map (fun r -> r.peak_rss_mb) reps)) ],
    [ ("setup_s", setups); ("job_s", jobs); ("round_ms", rounds) ] )

(* Every correctness check that spans reps. *)
let oracle ctx (reps : rep list) =
  let errs = List.concat_map (fun r -> r.errors) reps in
  let groups =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map (fun (g, _, _) -> g) r.results) reps)
  in
  let identical =
    List.concat_map
      (fun g ->
        Check.identical ~what:(Printf.sprintf "%s %s bytes" (Rep.name ctx.workload) g)
          (List.concat_map
             (fun r ->
               List.filter_map (fun (g', l, d) -> if g' = g then Some (l, d) else None) r.results)
             reps))
      groups
  in
  let schedules =
    match reps with
    | r :: _ ->
      let graph = Rep.graph_of ctx.workload in
      List.concat_map
        (fun (g, path) ->
          match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
          | Ok j -> List.map (fun m -> g ^ ": " ^ m) (Check.schedules Rep.device graph j)
          | Error m -> [ path ^ ": " ^ m ]
          | exception Sys_error m -> [ m ])
        r.result_files
    | [] -> [ "no rep ran" ]
  in
  let spearman =
    if ctx.workload = Rep.Cold_start && not ctx.smoke then
      List.concat_map
        (fun r ->
          match List.assoc_opt "cost_model.spearman_per_task" r.layers with
          | Some v -> Check.spearman ~min:0.90 v
          | None -> [])
        reps
    else []
  in
  (* Seed 0's cold start trains exactly the warm workloads' model. *)
  let warm_model =
    if ctx.workload = Rep.Cold_start && ctx.seed = 0 && Sys.file_exists ctx.model_path then
      let d = Digest.to_hex (Digest.file ctx.model_path) in
      List.concat_map
        (fun r ->
          List.concat_map
            (fun (g, l, d') ->
              if g = "model" && d' <> d then
                [ l ^ ": model differs from the warm workloads' model" ]
              else [])
            r.results)
        reps
    else []
  in
  errs @ identical @ schedules @ spearman @ warm_model

let min_setups = 10

let run_workload ~root ~workload ~seed ~seconds ~trace ~smoke =
  let run_dir =
    Filename.concat root (Printf.sprintf "%s-%d" (Rep.name workload) (Unix.getpid ()))
  in
  Rep.rm_rf run_dir;
  Rep.mkdir_p run_dir;
  let ctx =
    { workload; seed; smoke; run_dir;
      model_path =
        Rep.model_file (Filename.concat root (if smoke then "smoke-model" else "model")) }
  in
  let setup_err =
    match workload with
    | Rep.Cold_start -> Ok ()
    | Rep.Served -> ensure_model ctx
    | Rep.Felix_resnet50 | Rep.Ansor_dcgan ->
      Result.map
        (fun () ->
          let dst = child_model ctx in
          Rep.mkdir_p (shared_work ctx);
          Rep.mkdir_p (Filename.dirname dst);
          Rep.copy_file ctx.model_path dst)
        (ensure_model ctx)
  in
  let warmup, reps, extra, traced =
    match setup_err with
    | Error m -> ([], [ failed_rep ~label:"setup" ~duration_s:0.0 m ], [], [])
    | Ok () ->
      let warmup =
        match workload with
        | (Rep.Felix_resnet50 | Rep.Ansor_dcgan) when not smoke ->
          [ run_rep ctx ~label:"warmup" () ]
        | _ -> []
      in
      (* Set-up is reported as a median of at least [min_setups] samples;
         set-up-only children make up what the reps leave short. A set-up
         of a millisecond swings by half with the host's state, which
         changes within a minute, so half of them run before the reps and
         the rest after, to sample both ends of the run. *)
      let setup_only k = run_rep ctx ~label:(Printf.sprintf "setup%d" k) ~setup_only:true () in
      let n_before = if smoke then 0 else min_setups / 2 in
      let before = List.init n_before (fun k -> setup_only (k + 1)) in
      (* Reps until the measuring time is spent: always one, and another
         only if it is expected to finish in time. *)
      let t0 = now () in
      let rec go k acc =
        let r = run_rep ctx ~label:(Printf.sprintf "rep%d" k) () in
        let acc = r :: acc in
        if (not smoke) && r.failed = 0 && now () -. t0 +. r.duration_s <= seconds then
          go (k + 1) acc
        else List.rev acc
      in
      let reps = go 1 [] in
      let n_after =
        if smoke then 0 else max 0 (min_setups - n_before - List.length reps)
      in
      let after = List.init n_after (fun k -> setup_only (n_before + k + 1)) in
      let extra = before @ after in
      (* The traced rep runs whatever metrics are printed: the oracle's
         checks that need instruments (model composition, Spearman,
         measurement accounting, served = direct, the store) run in it. *)
      let traced = [ run_rep ctx ~label:"traced" ~traced:true () ] in
      (warmup, reps, extra, traced)
  in
  let everything = warmup @ reps @ extra @ traced in
  let failures = oracle ctx everything in
  let attempted = List.fold_left (fun a (r : rep) -> a + r.attempted) 0 everything in
  let failed = List.fold_left (fun a (r : rep) -> a + r.failed) 0 everything in
  let values, samples =
    e2e_values ~setups:(List.map (fun (r : rep) -> r.setup_s) (reps @ extra)) reps
  in
  let layers =
    match traced with
    | t :: _ ->
      let e2e_wall = List.assoc "wall_s" values in
      let traced_wall = Sample.percentile_or_zero 50.0 t.job_s in
      t.layers
      @ [ ("trace.overhead_pct",
           if e2e_wall > 0.0 then (traced_wall -. e2e_wall) /. e2e_wall *. 100.0 else 0.0) ]
    | [] -> []
  in
  let spans =
    if trace then
      List.concat_map
        (fun (t : rep) -> try Spans.read_jsonl t.spans_file with Sys_error _ -> [])
        traced
    else []
  in
  Rep.rm_rf run_dir;
  { o_workload = Rep.name workload;
    correct = failures = [] && failed = 0;
    attempted; failed; failures;
    values = values @ layers;
    samples;
    self_times = Spans.self_times spans;
    spans }

(* --- reporting ------------------------------------------------------------------ *)

(* Metric values in BENCHMARK.json order; a layer a workload does not
   exercise reads 0. An end-to-end metric this file cannot compute is an
   error. *)
let pick ~spec ~trace (o : outcome) =
  let metrics = if trace then spec.per_layer else spec.end_to_end in
  List.map
    (fun m ->
      match List.assoc_opt m.name o.values with
      | Some v -> (m, v)
      | None when trace -> (m, 0.0)
      | None -> failwith ("no computation for end-to-end metric " ^ m.name))
    metrics

let print_outcome ~spec ~trace (o : outcome) =
  Printf.printf "\n== %s: %s (%d attempted, %d failed)\n" o.o_workload
    (if o.correct then "correct" else "INCORRECT") o.attempted o.failed;
  List.iter (fun f -> Printf.printf "  check failed: %s\n" f) o.failures;
  let t = Table.create ~title:(o.o_workload ^ " metrics") ~header:[ "metric"; "value"; "unit" ] in
  List.iter
    (fun (m, v) -> Table.add_row t [ m.name; Printf.sprintf "%.6g" v; m.unit_ ])
    (pick ~spec ~trace o);
  Table.print t;
  let t =
    Table.create ~title:"timing samples" ~header:[ "sample"; "n"; "p50"; "tail"; "tail value" ]
  in
  List.iter
    (fun (k, xs) ->
      let n = List.length xs in
      if n > 0 then begin
        let p = Sample.tail_percentile n in
        Table.add_row t
          [ k; string_of_int n; Printf.sprintf "%.6g" (Stats.percentile 50.0 xs);
            Printf.sprintf "p%g" p; Printf.sprintf "%.6g" (Stats.percentile p xs) ]
      end)
    o.samples;
  Table.print t;
  if o.self_times <> [] then begin
    let t =
      Table.create ~title:"traced rep: self time by span"
        ~header:[ "span"; "count"; "total s"; "self s" ]
    in
    List.iter
      (fun (name, n, tot, slf) ->
        Table.add_row t
          [ name; string_of_int n; Printf.sprintf "%.4f" tot; Printf.sprintf "%.4f" slf ])
      o.self_times;
    Table.print t
  end

let metrics_json ~spec ~trace ?(prefix = "") (o : outcome) =
  List.map
    (fun (m, v) ->
      (prefix ^ m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]))
    (pick ~spec ~trace o)

(* The last line of standard output. *)
let result_line ~spec ~trace ?(smoke = false) (outcomes : outcome list) =
  let total f = Json.Num (float_of_int (List.fold_left (fun a o -> a + f o) 0 outcomes)) in
  let prefix o = if List.length outcomes > 1 then Some (o.o_workload ^ "/") else None in
  Json.Obj
    ([ ("correct", Json.Bool (List.for_all (fun o -> o.correct) outcomes));
       ("attempted", total (fun o -> o.attempted));
       ("failed", total (fun o -> o.failed));
       ("metrics",
        Json.Obj
          (List.concat_map (fun o -> metrics_json ~spec ~trace ?prefix:(prefix o) o) outcomes)) ]
    @ if smoke then [ ("smoke", Json.Bool true) ] else [])

(* Per-layer metrics no workload reported: a name BENCHMARK.json lists
   that the children never compute. *)
let uncovered ~spec (outcomes : outcome list) =
  List.filter
    (fun m -> not (List.exists (fun o -> List.mem_assoc m.name o.values) outcomes))
    spec.per_layer
  |> List.map (fun m -> m.name)

(* --- recorded runs (--json) and --compare ----------------------------------------- *)

let host () =
  let read f = try In_channel.with_open_bin f In_channel.input_all with Sys_error _ -> "" in
  let cpu =
    String.split_on_char '\n' (read "/proc/cpuinfo")
    |> List.find_map (fun l ->
           match String.index_opt l ':' with
           | Some i when String.trim (String.sub l 0 i) = "model name" ->
             Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | _ -> None)
    |> Option.value ~default:"unknown"
  in
  (* Best effort: the commit of a git checkout, read without running git. *)
  let commit =
    match String.trim (read ".git/HEAD") with
    | "" -> "unknown"
    | head when String.starts_with ~prefix:"ref: " head ->
      let ref_file = String.sub head 5 (String.length head - 5) in
      let r = String.trim (read (Filename.concat ".git" ref_file)) in
      if r = "" then "unknown" else r
    | sha -> sha
  in
  Json.Obj
    [ ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("cpu", Json.Str cpu); ("ocaml", Json.Str Sys.ocaml_version); ("commit", Json.Str commit) ]

let run_record ~spec ~seed ~seconds ~trace (o : outcome) =
  Json.Obj
    [ ("workload", Json.Str o.o_workload); ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num seconds); ("trace", Json.Num (if trace then 1.0 else 0.0));
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("metrics",
       Json.Obj (List.map (fun (m, v) -> (m.name, Json.Num v)) (pick ~spec ~trace o))) ]

(* Append the runs to FILE ({"host": ..., "runs": [...]}). *)
let append_runs path records =
  let runs =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> []
    | text -> (
      match Json.parse text with
      | Ok j -> Option.value ~default:[] (Option.bind (Json.find j "runs") Json.as_list)
      | Error m -> failwith (path ^ ": " ^ m))
  in
  let j = Json.Obj [ ("host", host ()); ("runs", Json.List (runs @ records)) ] in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string j ^ "\n"))

(* Per (workload, metric): the values of the untraced runs, in order. *)
let load_runs path =
  let j =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error m -> failwith (path ^ ": " ^ m)
  in
  let runs = Option.value ~default:[] (Option.bind (Json.find j "runs") Json.as_list) in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if Option.bind (Json.find r "trace") Json.as_float = Some 0.0 then
        match (Option.bind (Json.find r "workload") Json.as_string, Json.find r "metrics") with
        | Some w, Some (Json.Obj kvs) ->
          List.iter
            (fun (k, v) ->
              Option.iter
                (fun f ->
                  let prev = Option.value ~default:[] (Hashtbl.find_opt tbl (w, k)) in
                  Hashtbl.replace tbl (w, k) (prev @ [ f ]))
                (Json.as_float v))
            kvs
        | _ -> ())
    runs;
  (Option.value ~default:Json.Null (Json.find j "host"), tbl)

let summary xs =
  let q1, q2, q3 = Sample.quartiles xs in
  Json.Obj
    [ ("median", Json.Num q2); ("q1", Json.Num q1); ("q3", Json.Num q3);
      ("n", Json.Num (float_of_int (List.length xs))) ]

(* One row per (workload, end-to-end metric), printed; returns the rows
   as JSON. *)
let compare ~spec ~parent ~change =
  let host_p, p = load_runs parent and host_c, c = load_runs change in
  let rows =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun m ->
            match (Hashtbl.find_opt p (w, m.name), Hashtbl.find_opt c (w, m.name)) with
            | Some pv, Some cv when pv <> [] && cv <> [] ->
              let bound = Option.value ~default:0.0 m.bound in
              let v = Sample.verdict m.better ~bound ~parent:pv ~change:cv in
              Some (w, m, pv, cv, v)
            | _ -> None)
          spec.end_to_end)
      spec.workloads
  in
  let t =
    Table.create ~title:(Printf.sprintf "%s -> %s" parent change)
      ~header:
        [ "workload"; "metric"; "parent median [q1, q3] n"; "change median [q1, q3] n"; "bound";
          "verdict" ]
  in
  let cell xs =
    let q1, q2, q3 = Sample.quartiles xs in
    Printf.sprintf "%.5g [%.5g, %.5g] %d" q2 q1 q3 (List.length xs)
  in
  List.iter
    (fun (w, m, pv, cv, v) ->
      Table.add_row t
        [ w; m.name; cell pv; cell cv;
          Printf.sprintf "%g" (Option.value ~default:0.0 m.bound);
          Sample.verdict_name v ])
    rows;
  Table.print t;
  Json.Obj
    [ ("parent", Json.Obj [ ("file", Json.Str parent); ("host", host_p) ]);
      ("change", Json.Obj [ ("file", Json.Str change); ("host", host_c) ]);
      ("rows",
       Json.List
         (List.map
            (fun (w, m, pv, cv, v) ->
              Json.Obj
                [ ("workload", Json.Str w); ("metric", Json.Str m.name);
                  ("unit", Json.Str m.unit_); ("parent", summary pv); ("change", summary cv);
                  ("bound", Json.Num (Option.value ~default:0.0 m.bound));
                  ("verdict", Json.Str (Sample.verdict_name v)) ])
            rows)) ]

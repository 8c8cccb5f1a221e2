(* One rep of a workload, run in a fresh child process that the benchmark
   re-execs from its own binary. The child sets up (loads the cost model,
   builds the graph, starts the daemon), records when it is ready, makes
   the timed calls into the library's public API, and writes what it saw
   to [rep.json] in its own directory for the parent to aggregate.

   The traced rep does the same work with spans recorded around every
   public call and between tuning-event boundaries, and reads the
   library's existing instruments (Telemetry.global plus a private
   registry handed to the tuner) after each call. *)

type workload = Cold_start | Felix_resnet50 | Ansor_dcgan | Served

let all = [ Cold_start; Felix_resnet50; Ansor_dcgan; Served ]

let name = function
  | Cold_start -> "cold_start"
  | Felix_resnet50 -> "felix_resnet50"
  | Ansor_dcgan -> "ansor_dcgan"
  | Served -> "served"

let of_name s = List.find_opt (fun w -> name w = s) all

type sizes = {
  cold_rounds : int;
  felix_rounds : int;
  ansor_rounds : int;
  served_rounds : int;
  jobs_per_conn : int;  (** served jobs per client connection and rep *)
  max_tasks : int option;  (** cost-model dataset size; [None] = library default *)
  schedules_per_task : int option;
}

let full_sizes =
  { cold_rounds = 40; felix_rounds = 40; ansor_rounds = 60; served_rounds = 16;
    jobs_per_conn = 20; max_tasks = None; schedules_per_task = None }

let smoke_sizes =
  { cold_rounds = 2; felix_rounds = 2; ansor_rounds = 2; served_rounds = 2;
    jobs_per_conn = 1; max_tasks = Some 4; schedules_per_task = Some 16 }

let device = Device.rtx_a5000
let model_seed seed = 1234 + seed

(* The file name [Train.pretrained_for_device] caches the model under. *)
let model_file dir =
  Filename.concat dir
    (Printf.sprintf "costmodel_%s.json"
       (String.map (fun c -> if c = ' ' || c = '/' then '_' else c) device.Device.device_name))

let run_config search ~rounds ~seed =
  Tuning_config.(
    builder |> with_search search |> with_rounds rounds |> with_seed seed |> with_jobs 1)

let graph_of = function
  | Felix_resnet50 -> Workload.graph Workload.Resnet50
  | Cold_start | Ansor_dcgan | Served -> Workload.graph Workload.Dcgan

let now = Unix.gettimeofday
let mkdir_p dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc data)

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
let digest s = Digest.to_hex (Digest.string s)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> None)
      (String.split_on_char '\n' status)
    |> Option.value ~default:0.0

(* --- what one rep reports ---------------------------------------------------- *)

type out = {
  mutable t_ready : float;
  mutable job_s : float list;  (** each tuning job's latency, as its caller waits *)
  mutable window_s : float list;  (** timed windows the jobs ran in *)
  mutable round_ms : float list;
  mutable finals : float list;  (** final network latency of the rep's result *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable results : (string * string * string) list;  (** group, label, digest *)
  mutable result_files : (string * string) list;  (** group, path *)
  mutable layers : (string * float) list;
}

let new_out () =
  { t_ready = 0.0; job_s = []; window_s = []; round_ms = []; finals = []; attempted = 0;
    failed = 0; errors = []; results = []; result_files = []; layers = [] }

(* A set-up-only child stops where the timed work would begin: it gives
   the parent one more set-up sample. *)
exception Setup_done

let setup_only = ref false

let ready o =
  o.t_ready <- now ();
  if !setup_only then raise Setup_done

let error o fmt = Printf.ksprintf (fun m -> o.errors <- o.errors @ [ m ]) fmt
let layer o k v = o.layers <- o.layers @ [ (k, v) ]

let nums xs = Json.List (List.map (fun x -> Json.Num x) xs)

let out_json o =
  let gc = Gc.quick_stat () in
  let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.0 in
  let layers =
    o.layers
    @ [ ("gc.minor_mwords", gc.Gc.minor_words /. 1e6);
        ("gc.major_collections", float_of_int gc.Gc.major_collections);
        ("gc.top_heap_mb", float_of_int gc.Gc.top_heap_words *. word_mb) ]
  in
  Json.Obj
    [ ("t_ready", Json.Num o.t_ready); ("job_s", nums o.job_s); ("window_s", nums o.window_s);
      ("round_ms", nums o.round_ms); ("final_latency_ms", nums o.finals);
      ("peak_rss_mb", Json.Num (peak_rss_mb ()));
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("errors", Json.List (List.map (fun e -> Json.Str e) o.errors));
      ("results",
       Json.List
         (List.map
            (fun (g, l, d) ->
              Json.Obj
                [ ("group", Json.Str g); ("label", Json.Str l); ("digest", Json.Str d) ])
            o.results));
      ("result_files",
       Json.List
         (List.map
            (fun (g, p) -> Json.Obj [ ("group", Json.Str g); ("path", Json.Str p) ])
            o.result_files));
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) layers)) ]

(* Keep one result per group as a file (the schedule oracle reads it) and
   its digest (every rep's must match). *)
let record_result o ~dir ~group ~label bytes =
  o.results <- o.results @ [ (group, label, digest bytes) ];
  if not (List.mem_assoc group o.result_files) then begin
    let path = Filename.concat dir (Printf.sprintf "result-%s.json" group) in
    Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
    o.result_files <- o.result_files @ [ (group, path) ]
  end

(* --- tuning-event log ------------------------------------------------------- *)

type round = {
  r_start : float;
  mutable r_measured : float;
  mutable r_updated : float option;
  mutable r_end : float;
  mutable proposed : int;
  mutable measured : int;
}

type log = {
  mutable t_call : float;
  mutable t_started : float;
  mutable t_return : float;
  mutable rounds : round list;  (** newest first *)
  mutable sim_clock_s : float;
}

let on_event log ev =
  let t = now () in
  match (ev, log.rounds) with
  | Tuning_config.Tuning_started _, _ -> log.t_started <- t
  | Tuning_config.Round_started _, _ ->
    log.rounds <-
      { r_start = t; r_measured = t; r_updated = None; r_end = t; proposed = 0; measured = 0 }
      :: log.rounds
  | Tuning_config.Candidates_measured { proposed; measured; _ }, r :: _ ->
    r.r_measured <- t;
    r.proposed <- proposed;
    r.measured <- measured
  | Tuning_config.Model_updated _, r :: _ -> r.r_updated <- Some t
  | Tuning_config.Round_finished _, r :: _ -> r.r_end <- t
  | Tuning_config.Tuning_finished { sim_clock_s; _ }, _ -> log.sim_clock_s <- sim_clock_s
  | _ -> ()

let round_ms log = List.rev_map (fun r -> (r.r_end -. r.r_start) *. 1000.0) log.rounds

(* Spans between event boundaries, attached under the Tuner.run span. *)
let event_spans sp ~parent log =
  let add name a b = Spans.add sp ~parent ~name ~start_s:a ~end_s:b in
  let rounds = List.rev log.rounds in
  ignore (add "tuner.prepare" log.t_call log.t_started);
  (match rounds with
  | r :: _ -> ignore (add "tuner.start" log.t_started r.r_start)
  | [] -> ());
  List.iter
    (fun r ->
      let id = add "tuner.round" r.r_start r.r_end in
      let add name a b = ignore (Spans.add sp ~parent:id ~name ~start_s:a ~end_s:b) in
      add "round.search_measure" r.r_start r.r_measured;
      let committed =
        match r.r_updated with
        | Some u ->
          add "round.model_update" r.r_measured u;
          u
        | None -> r.r_measured
      in
      add "round.commit" committed r.r_end)
    rounds;
  match List.rev rounds with
  | last :: _ -> ignore (add "tuner.finish" last.r_end log.t_return)
  | [] -> ()

(* A traced run hands the tuner a private registry; an untraced one
   leaves telemetry at the library default (disabled). *)
type tracing = { traced : bool; sp : Spans.t; reg : Telemetry.t option }

let untraced = { traced = false; sp = Spans.disabled; reg = None }

let tune tr rc model graph engine =
  let log = { t_call = now (); t_started = 0.0; t_return = 0.0; rounds = []; sim_clock_s = 0.0 } in
  let rc = Tuning_config.with_on_event (on_event log) rc in
  let rc = match tr.reg with Some r -> Tuning_config.with_telemetry r rc | None -> rc in
  let id = Spans.open_ tr.sp "Tuner.run" in
  log.t_call <- now ();
  let res = Tuner.run rc device model graph engine in
  log.t_return <- now ();
  Spans.close tr.sp id;
  event_spans tr.sp ~parent:id log;
  (res, log)

let call_ms log = (log.t_return -. log.t_call) *. 1000.0

(* Check and record one direct run's result. *)
let finish_run o ~dir ~group ~label = function
  | Error e, _ ->
    o.failed <- o.failed + 1;
    error o "%s: %s" label (Tuner.error_message e);
    None
  | Ok r, log ->
    o.errors <- o.errors @ List.map (fun m -> label ^ ": " ^ m) (Check.network_latency r);
    record_result o ~dir ~group ~label (Json.to_line (Export.result_json r));
    Some (r, log)

(* --- per-layer numbers of a traced rep --------------------------------------- *)

type instruments = {
  search_ms : float;
  prepare_ms : float;
  compiles : int;
  gd_steps : int;
  attempts : int;
  failures : int;
  disk_hits : int;
  disk_misses : int;
}

let read_instruments reg =
  let g = Telemetry.global in
  let sum name = Telemetry.Histogram.sum (Telemetry.histogram g name) in
  let count r name = Telemetry.Counter.value (Telemetry.counter r name) in
  let m name = match reg with Some r -> count r ("measure." ^ name) | None -> 0 in
  let disk k = Option.value ~default:0 (List.assoc_opt k (Pack.disk_counters ())) in
  { search_ms = sum "span.felix.search_round.ms" +. sum "span.ansor.search_round.ms";
    prepare_ms = sum "span.pack.prepare.ms";
    compiles = count g "features.tapes_compiled";
    gd_steps = count g "felix.gd_steps";
    attempts = m "attempts";
    failures = m "timeouts" + m "crashes" + m "invalid";
    disk_hits = disk "disk_hits";
    disk_misses = disk "disk_misses" }

let instruments_delta a b =
  { search_ms = b.search_ms -. a.search_ms;
    prepare_ms = b.prepare_ms -. a.prepare_ms;
    compiles = b.compiles - a.compiles;
    gd_steps = b.gd_steps - a.gd_steps;
    attempts = b.attempts - a.attempts;
    failures = b.failures - a.failures;
    disk_hits = b.disk_hits - a.disk_hits;
    disk_misses = b.disk_misses - a.disk_misses }

let p50 = Sample.percentile_or_zero 50.0

(* Layers measured around the traced Tuner.run calls of a rep. *)
let tuner_layers o logs (d : instruments) =
  let rounds = List.concat_map (fun l -> List.rev l.rounds) logs in
  let ms a b = (b -. a) *. 1000.0 in
  let search_measure_ms = List.map (fun r -> ms r.r_start r.r_measured) rounds in
  let proposed = List.fold_left (fun a r -> a + r.proposed) 0 rounds in
  let measured = List.fold_left (fun a r -> a + r.measured) 0 rounds in
  let search_s = d.search_ms /. 1000.0 in
  layer o "features.prepare_s"
    (List.fold_left (fun a l -> a +. (l.t_started -. l.t_call)) 0.0 logs);
  layer o "optim.search_s" search_s;
  layer o "optim.search_measure_ms_p50" (p50 search_measure_ms);
  layer o "optim.gd_steps" (float_of_int d.gd_steps);
  layer o "optim.gd_step_us_p50"
    (Telemetry.Histogram.p50 (Telemetry.histogram Telemetry.global "felix.gd_step_ms") *. 1000.0);
  layer o "optim.start_ms"
    (p50
       (List.filter_map
          (fun l ->
            match List.rev l.rounds with r :: _ -> Some (ms l.t_started r.r_start) | [] -> None)
          logs));
  layer o "optim.proposed" (float_of_int proposed);
  layer o "optim.measured" (float_of_int measured);
  layer o "optim.fresh_ratio"
    (if proposed = 0 then 0.0 else float_of_int measured /. float_of_int proposed);
  layer o "optim.sim_tuning_s" (List.fold_left (fun a l -> a +. l.sim_clock_s) 0.0 logs);
  layer o "cost_model.update_ms_p50"
    (p50
       (List.filter_map
          (fun r -> Option.map (fun u -> ms r.r_measured u) r.r_updated)
          rounds));
  layer o "measure.s"
    (List.fold_left ( +. ) 0.0 search_measure_ms /. 1000.0 -. search_s);
  layer o "measure.attempts" (float_of_int d.attempts);
  layer o "measure.failed_ratio"
    (if d.attempts = 0 then 0.0 else float_of_int d.failures /. float_of_int d.attempts)

(* A stored run's round tail: journal fsync plus checkpoint, from the last
   of Candidates_measured/Model_updated to Round_finished. *)
let store_layers o log ~dir =
  let commit_ms =
    List.rev_map
      (fun r -> (r.r_end -. Option.value r.r_updated ~default:r.r_measured) *. 1000.0)
      log.rounds
  in
  layer o "store.commit_ms_p50" (p50 commit_ms);
  layer o "store.commit_ms_p90" (Sample.percentile_or_zero 90.0 commit_ms);
  let bytes file = float_of_int (file_size (Filename.concat dir file)) in
  layer o "store.checkpoint_bytes" (bytes "checkpoint.json");
  layer o "store.journal_bytes" (bytes "journal.jsonl")

(* The one Tuner.run of a serial rep; traced, its layers are read around it. *)
let tune_one o tr rc model graph engine =
  let i0 = read_instruments tr.reg in
  let ((_, log) as run) = tune tr rc model graph engine in
  if tr.traced then tuner_layers o [ log ] (instruments_delta i0 (read_instruments tr.reg));
  run

(* --- cost model ------------------------------------------------------------- *)

(* [Train.pretrained_for_device], call by call, so each piece gets its span;
   on the seed it writes the same bytes (the benchmark checks the
   digests). The dataset and pretraining layers are read here. *)
let compose_model o tr ~sizes ~seed ~path =
  let sp = tr.sp in
  let epochs = ref 0 in
  Telemetry.add_sink Telemetry.global (fun r ->
      if r.Telemetry.r_name = "cost_model.pretrain" then
        epochs := Option.value ~default:0 (Telemetry.attr_int r.Telemetry.r_attrs "epochs"));
  let rng = Rng.create (model_seed seed) in
  let tasks =
    Spans.with_span sp "Dataset.collect_tasks" (fun () ->
        Dataset.collect_tasks ?max_tasks:sizes.max_tasks ())
  in
  let i0 = read_instruments None in
  let t0 = now () in
  let samples =
    Spans.with_span sp "Dataset.generate" (fun () ->
        Dataset.generate rng device ?schedules_per_task:sizes.schedules_per_task tasks)
  in
  let dataset_s = now () -. t0 in
  let d = instruments_delta i0 (read_instruments None) in
  let ds = Spans.with_span sp "Dataset.split" (fun () -> Dataset.split rng samples) in
  let t1 = now () in
  let model, metrics = Spans.with_span sp "Train.pretrain" (fun () -> Train.pretrain rng ds) in
  let pretrain_s = now () -. t1 in
  (match Spans.with_span sp "Mlp.save_file" (fun () -> Mlp.save_file model path) with
  | Ok () -> ()
  | Error e -> error o "Mlp.save_file: %s" (Store.error_message e));
  let prepare_s = d.prepare_ms /. 1000.0 in
  layer o "cost_model.dataset_s" dataset_s;
  layer o "features.dataset_prepare_s" prepare_s;
  layer o "cost_model.label_s" (dataset_s -. prepare_s);
  layer o "cost_model.dataset_samples" (float_of_int (Array.length samples));
  layer o "cost_model.pretrain_s" pretrain_s;
  layer o "cost_model.pretrain_samples_per_s"
    (float_of_int (Array.length ds.Dataset.train * !epochs) /. pretrain_s);
  layer o "cost_model.spearman_per_task" metrics.Train.per_task_spearman;
  model

let load_model o tr path =
  let t0 = now () in
  let m = Spans.with_span tr.sp "Mlp.load_file" (fun () -> Mlp.load_file path) in
  layer o "cost_model.load_ms" ((now () -. t0) *. 1000.0);
  match m with
  | Ok m -> m
  | Error e -> failwith (Printf.sprintf "Mlp.load_file %s: %s" path (Store.error_message e))

(* The model a warm workload loads: [Train.pretrained_for_device] into
   [dir] (the smoke run composes a shrunk one instead). *)
let build_model ~smoke ~dir =
  mkdir_p dir;
  if smoke then
    ignore (compose_model (new_out ()) untraced ~sizes:smoke_sizes ~seed:0 ~path:(model_file dir))
  else ignore (Train.pretrained_for_device ~cache_dir:dir ~seed:(model_seed 0) device)

(* --- serial workloads ------------------------------------------------------- *)

let cold_start o tr ~sizes ~seed ~dir ~compose =
  let graph = graph_of Cold_start in
  let rc = run_config Tuning_config.quick ~rounds:sizes.cold_rounds ~seed in
  let cache = "_artifacts" in
  mkdir_p cache;
  ready o;
  let t0 = now () in
  let model =
    if compose then compose_model o tr ~sizes ~seed ~path:(model_file cache)
    else Train.pretrained_for_device ~cache_dir:cache ~seed:(model_seed seed) device
  in
  let run = tune_one o tr rc model graph Tuner.Felix in
  let t1 = now () in
  o.attempted <- 1;
  (match finish_run o ~dir ~group:"result" ~label:"run" run with
  | Some (r, log) ->
    o.finals <- [ r.Tuner.final_latency_ms ];
    o.job_s <- [ t1 -. t0 ];
    o.window_s <- [ t1 -. t0 ];
    o.round_ms <- round_ms log
  | None -> ());
  match In_channel.with_open_bin (model_file cache) In_channel.input_all with
  | bytes -> o.results <- o.results @ [ ("model", "model", digest bytes) ]
  | exception Sys_error m -> error o "model file: %s" m

let warm o tr ~workload ~sizes ~seed ~dir ~model_path =
  let rounds, engine =
    match workload with
    | Ansor_dcgan -> (sizes.ansor_rounds, Tuner.Ansor)
    | _ -> (sizes.felix_rounds, Tuner.Felix)
  in
  let model = load_model o tr model_path in
  let graph = graph_of workload in
  let rc = run_config Tuning_config.default ~rounds ~seed in
  ready o;
  let run = tune_one o tr rc model graph engine in
  o.attempted <- 1;
  match finish_run o ~dir ~group:"result" ~label:"run" run with
  | Some (r, log) ->
    o.finals <- [ r.Tuner.final_latency_ms ];
    o.job_s <- [ call_ms log /. 1000.0 ];
    o.window_s <- [ call_ms log /. 1000.0 ];
    o.round_ms <- round_ms log
  | None -> ()

(* --- the served workload ------------------------------------------------------ *)

(* A job's progress as its [watch] stream reports it. The stream is read
   from a raw connection because [Serve.Client] offers request/response
   only; each line is timestamped on arrival. *)
type job = {
  conn : int;  (** the client connection that submitted it *)
  id : string;
  t_submit : float;
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable t_running : float;
  mutable arrivals : float list;  (** round events, newest first *)
  mutable state : string option;  (** terminal state *)
  mutable t_done : float;
}

let send_line fd j =
  let s = Json.to_line j ^ "\n" in
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let watch socket id =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  send_line fd (Json.Obj [ ("verb", Json.Str "watch"); ("id", Json.Str id) ]);
  fd

let on_watch_line job line =
  match Json.parse line with
  | Error _ -> ()
  | Ok j ->
    let str k = Option.bind (Json.find j k) Json.as_string in
    let t = now () in
    if Option.bind (Json.find j "done") Json.as_bool = Some true then begin
      job.state <- Some (Option.value ~default:"?" (str "state"));
      job.t_done <- t
    end
    else
      match (str "event", str "state") with
      | Some "state", Some "running" -> job.t_running <- t
      | Some "round", _ -> job.arrivals <- t :: job.arrivals
      | _ -> ()

(* Read what is available; false once the stream has ended. *)
let read_watch job =
  let chunk = Bytes.create 4096 in
  match Unix.read job.fd chunk 0 4096 with
  | 0 -> false
  | n ->
    Buffer.add_subbytes job.buf chunk 0 n;
    let data = Buffer.contents job.buf in
    let lines = String.split_on_char '\n' data in
    let rec go = function
      | [ rest ] ->
        Buffer.clear job.buf;
        Buffer.add_string job.buf rest
      | l :: tl ->
        if l <> "" then on_watch_line job l;
        go tl
      | [] -> ()
    in
    go lines;
    job.state = None

(* One client thread drives [conns] connections in a closed loop: a
   connection submits its next job only when its previous one is done.
   Every job is [spec], so every result must be the same bytes. *)
let client_loop o tr ~dir ~socket ~spec ~conns ~jobs_per_conn =
  let sp = tr.sp in
  let clients =
    Array.init conns (fun _ ->
        match Spans.with_span sp "Serve.Client.connect" (fun () -> Serve.Client.connect socket) with
        | Ok c -> c
        | Error m -> failwith m)
  in
  let remaining = Array.make conns jobs_per_conn in
  let active = ref [] and finished = ref [] in
  let start conn =
    remaining.(conn) <- remaining.(conn) - 1;
    o.attempted <- o.attempted + 1;
    let t_submit = now () in
    match
      Spans.with_span sp "Serve.Client.submit" (fun () -> Serve.Client.submit clients.(conn) spec)
    with
    | Error m ->
      o.failed <- o.failed + 1;
      error o "submit: %s" m
    | Ok id ->
      active :=
        { conn; id; t_submit; fd = watch socket id; buf = Buffer.create 256; t_running = nan;
          arrivals = []; state = None; t_done = nan }
        :: !active
  in
  let finish job =
    Unix.close job.fd;
    active := List.filter (fun j -> j != job) !active;
    finished := job :: !finished;
    let label = Printf.sprintf "conn%d %s" (job.conn + 1) job.id in
    (* One span per job, split where the watch stream saw it start. *)
    let span = Spans.add sp ~parent:0 ~name:"served.job" ~start_s:job.t_submit ~end_s:job.t_done in
    if Float.is_finite job.t_running then begin
      let add name a b = ignore (Spans.add sp ~parent:span ~name ~start_s:a ~end_s:b) in
      add "served.queue" job.t_submit job.t_running;
      add "served.run" job.t_running job.t_done
    end;
    match job.state with
    | Some "done" -> (
      match
        Spans.with_span sp "Serve.Client.result" (fun () ->
            Serve.Client.result clients.(job.conn) job.id)
      with
      | Ok payload ->
        record_result o ~dir ~group:"served" ~label (Json.to_line payload);
        o.job_s <- o.job_s @ [ job.t_done -. job.t_submit ];
        (* Gaps between consecutive round events; the first round also
           carries the job's start-up and is left out. *)
        let rec gaps = function
          | a :: (b :: _ as tl) -> ((a -. b) *. 1000.0) :: gaps tl
          | _ -> []
        in
        o.round_ms <- o.round_ms @ List.rev (gaps job.arrivals)
      | Error m ->
        o.failed <- o.failed + 1;
        error o "%s: result: %s" label m)
    | st ->
      o.failed <- o.failed + 1;
      error o "%s ended %s" label (Option.value ~default:"without a state" st)
  in
  let t_first = now () in
  let rec loop () =
    for c = 0 to conns - 1 do
      if remaining.(c) > 0 && not (List.exists (fun j -> j.conn = c) !active) then start c
    done;
    if !active <> [] then begin
      let fds = List.map (fun j -> j.fd) !active in
      match Unix.select fds [] [] 120.0 with
      | [], _, _ -> failwith "served jobs made no progress for 120 s"
      | ready, _, _ ->
        List.iter
          (fun j -> if List.mem j.fd ready && not (read_watch j) then finish j)
          !active;
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
  in
  loop ();
  let t_last = List.fold_left (fun a j -> max a j.t_done) t_first !finished in
  Array.iter Serve.Client.close clients;
  (t_last -. t_first, List.rev !finished)

(* The served job: DCGAN, Felix with the reduced-effort search. *)
let served_spec ~sizes ~seed =
  { Serve.Job.network = Workload.Dcgan; inference_batch = 1; device; engine = Tuner.Felix;
    run = run_config Tuning_config.quick ~rounds:sizes.served_rounds ~seed;
    deadline_s = None; store_dir = None }

(* The store layer, measured in the traced rep beside the served jobs: the
   served spec run directly on a fresh store (journal, fsync and a
   checkpoint every round), then again on a copy of that completed store
   (journal replay and warm start). The fresh-store result must equal
   the served one: an empty store changes nothing. *)
let stored_runs o tr ~dir ~model ~graph (spec : Serve.Job.spec) =
  let run store_dir =
    let t0 = now () in
    match Spans.with_span tr.sp "Store.open_dir" (fun () -> Store.open_dir store_dir) with
    | Error e ->
      error o "Store.open_dir: %s" (Store.error_message e);
      None
    | Ok store ->
      let open_ms = (now () -. t0) *. 1000.0 in
      let rc = Tuning_config.with_store store spec.Serve.Job.run in
      let res, log = tune tr rc model graph spec.Serve.Job.engine in
      Store.close store;
      o.attempted <- o.attempted + 1;
      Some (open_ms, res, log)
  in
  let fresh = Filename.concat dir "store-fresh" and warm = Filename.concat dir "store-warm" in
  (match run fresh with
  | Some (_, Ok r, log) ->
    o.errors <- o.errors @ Check.network_latency r;
    record_result o ~dir ~group:"served" ~label:"stored direct"
      (Json.to_line (Export.result_json r));
    store_layers o log ~dir:fresh;
    copy_dir fresh warm;
    (match run warm with
    | Some (open_ms, Ok r, _) ->
      o.errors <- o.errors @ Check.network_latency r;
      layer o "store.open_ms" open_ms
    | Some (_, Error e, _) ->
      o.failed <- o.failed + 1;
      error o "warm stored run: %s" (Tuner.error_message e)
    | None -> ())
  | Some (_, Error e, _) ->
    o.failed <- o.failed + 1;
    error o "stored run: %s" (Tuner.error_message e)
  | None -> ());
  rm_rf fresh;
  rm_rf warm

let served o tr ~sizes ~seed ~dir ~model_path =
  let model = load_model o tr model_path in
  let spec = served_spec ~sizes ~seed in
  (* Relative to the child's working directory: a socket path must stay
     short. *)
  let socket = "d.sock" in
  let pack_cache = "packs" in
  let srv =
    match
      Serve.create ~workers:2 ?telemetry:tr.reg ~model_for:(fun _ -> model) ~pack_cache ~socket ()
    with
    | Ok s -> s
    | Error m -> failwith ("Serve.create: " ^ m)
  in
  let daemon = Thread.create Serve.run srv in
  Fun.protect ~finally:(fun () ->
      Serve.initiate_shutdown srv;
      Thread.join daemon)
  @@ fun () ->
  (* Set-up: one served job fills the shared pack cache; the in-memory
     pack cache is then dropped, so the timed jobs read the warm disk
     cache. *)
  let span name f = Spans.with_span tr.sp name f in
  (match span "Serve.Client.connect" (fun () -> Serve.Client.connect socket) with
  | Error m -> failwith m
  | Ok c ->
    let r =
      match span "Serve.Client.submit" (fun () -> Serve.Client.submit c spec) with
      | Error m -> Error m
      | Ok id -> span "Serve.Client.wait" (fun () -> Serve.Client.wait ~poll_s:0.005 c id)
    in
    (match Result.map (fun st -> Option.bind (Json.find st "state") Json.as_string) r with
    | Ok (Some "done") -> ()
    | Ok st -> failwith ("set-up job ended " ^ Option.value ~default:"?" st)
    | Error m -> failwith ("set-up job: " ^ m));
    Serve.Client.close c);
  Pack.clear_memory_cache ();
  let i0 = read_instruments tr.reg in
  ready o;
  let wall, jobs =
    client_loop o tr ~dir ~socket ~spec ~conns:2 ~jobs_per_conn:sizes.jobs_per_conn
  in
  o.window_s <- [ wall ];
  let d = instruments_delta i0 (read_instruments tr.reg) in
  layer o "features.disk_hits" (float_of_int d.disk_hits);
  layer o "features.disk_misses" (float_of_int d.disk_misses);
  layer o "serve.queue_ms_p50"
    (p50 (List.map (fun j -> (j.t_running -. j.t_submit) *. 1000.0) jobs));
  (match span "Serve.Client.connect" (fun () -> Serve.Client.connect socket) with
  | Ok c ->
    (match span "Serve.Client.stats" (fun () -> Serve.Client.stats c) with
    | Ok st ->
      layer o "serve.rejects"
        (Option.value ~default:0.0 (Option.bind (Json.find st "rejected") Json.as_float))
    | Error m -> error o "stats: %s" m);
    Serve.Client.close c
  | Error m -> error o "stats: %s" m);
  (* The final latency, from the first served result. *)
  o.finals <-
    Option.to_list
      (Option.bind (List.assoc_opt "served" o.result_files) (fun path ->
           match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
           | Ok j -> Option.bind (Json.find j "final_latency_ms") Json.as_float
           | Error _ -> None));
  (* The traced rep also runs the spec directly in this process: every
     served result must equal it, and the tuner-level layers are read
     around it. *)
  if tr.traced then begin
    let graph = graph_of Served in
    let i0 = read_instruments tr.reg in
    let run = tune tr spec.Serve.Job.run model graph spec.Serve.Job.engine in
    o.attempted <- o.attempted + 1;
    match finish_run o ~dir ~group:"served" ~label:"direct" run with
    | None -> ()
    | Some (_, log) ->
      tuner_layers o [ log ] (instruments_delta i0 (read_instruments tr.reg));
      let direct_ms = call_ms log in
      layer o "serve.overhead_ms_p50"
        (p50 (List.map (fun j -> ((j.t_done -. j.t_submit) *. 1000.0) -. direct_ms) jobs));
      stored_runs o tr ~dir ~model ~graph spec
  end

(* --- child entry point ------------------------------------------------------ *)

type args = {
  workload : workload;
  seed : int;
  dir : string;  (** where the rep's outputs go *)
  cwd : string;  (** the working directory the rep runs in *)
  model_path : string;
  traced : bool;
  setup_only : bool;
  sizes : sizes;
}

let run a =
  Sys.chdir a.cwd;
  setup_only := a.setup_only;
  let o = new_out () in
  let tr =
    if a.traced then begin
      Telemetry.enable Telemetry.global;
      { traced = true; sp = Spans.create ~enabled:true ~rep:(Filename.basename a.dir);
        reg = Some (Telemetry.create ()) }
    end
    else untraced
  in
  let i0 = read_instruments tr.reg in
  (try
     match a.workload with
     | Cold_start ->
       cold_start o tr ~sizes:a.sizes ~seed:a.seed ~dir:a.dir
         ~compose:(a.traced || a.sizes.max_tasks <> None)
     | Felix_resnet50 | Ansor_dcgan ->
       warm o tr ~workload:a.workload ~sizes:a.sizes ~seed:a.seed ~dir:a.dir
         ~model_path:a.model_path
     | Served ->
       served o tr ~sizes:a.sizes ~seed:a.seed ~dir:a.dir ~model_path:a.model_path
   with
   | Setup_done -> ()
   | e ->
     o.failed <- o.failed + 1;
     error o "%s" (Printexc.to_string e));
  if a.traced then begin
    let d = instruments_delta i0 (read_instruments tr.reg) in
    layer o "features.pack_compiles" (float_of_int d.compiles);
    Option.iter (fun reg -> o.errors <- o.errors @ Check.measure_accounting reg) tr.reg;
    Spans.write_jsonl (Filename.concat a.dir "spans.jsonl") (Spans.spans tr.sp)
  end;
  Out_channel.with_open_bin (Filename.concat a.dir "rep.json") (fun oc ->
      output_string oc (Json.to_line (out_json o)))

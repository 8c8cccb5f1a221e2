(* Correctness oracle of the benchmark. Each check returns the list of its
   failures; an empty list is a pass. None of them trusts the tuner's own
   bookkeeping: schedules are rebuilt from the result file alone, with a
   fresh compile of their sketch, and re-simulated. *)

let fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt

(* Every item must equal the first, byte for byte. [items] are
   (label, bytes or digest). *)
let identical ~what items =
  match items with
  | [] -> []
  | (l0, b0) :: rest ->
    List.concat_map
      (fun (l, b) -> if b = b0 then [] else fail "%s: %s differs from %s" what l l0)
      rest

let bits = Int64.bits_of_float

(* [Tuner.network_latency_ms r] is [r.final_latency_ms] bitwise, and so
   is the last point of the progress curve. *)
let network_latency (r : Tuner.result) =
  (if bits (Tuner.network_latency_ms r) = bits r.Tuner.final_latency_ms then []
   else
     fail "network_latency_ms %.17g <> final_latency_ms %.17g" (Tuner.network_latency_ms r)
       r.Tuner.final_latency_ms)
  @
  match List.rev r.Tuner.curve with
  | p :: _ when bits p.Tuner.latency_ms = bits r.Tuner.final_latency_ms -> []
  | p :: _ ->
    fail "last curve point %.17g <> final_latency_ms %.17g" p.Tuner.latency_ms
      r.Tuner.final_latency_ms
  | [] -> fail "empty progress curve"

(* Rebuild one reported best schedule: its sketch by name, a fresh
   [Pack.prepare], y = log of the assignment. The rounding must accept the
   point unchanged, and the simulator's noiseless latency of it must be
   finite and within 10% of the reported (noisy, measured) latency. *)
let schedule device (sg : Compute.subgraph) ~sketch ~assignment ~latency_ms =
  match
    List.find_opt (fun s -> s.Schedule.sched_name = sketch) (Sketch.generate sg)
  with
  | None -> fail "%s: no sketch named %S" sg.Compute.sg_name sketch
  | Some sched -> (
    let pack = Pack.prepare sg sched in
    let names = Pack.var_names pack in
    match
      Array.map (fun v -> log (float_of_int (List.assoc v assignment))) names
    with
    | exception Not_found ->
      fail "%s: assignment does not bind every variable of %s" sg.Compute.sg_name sketch
    | y -> (
      match Pack.round_to_valid pack y with
      | None -> fail "%s: round_to_valid rejects the reported assignment" sg.Compute.sg_name
      | Some y' ->
        let rounded = Pack.assignment pack y' in
        if rounded <> assignment then
          fail "%s: the reported assignment is not a valid point (rounds elsewhere)"
            sg.Compute.sg_name
        else
          let lat =
            Gpu_model.program_latency_ms device (Pack.program pack) (Pack.env_of pack y')
          in
          if not (Float.is_finite lat) then
            fail "%s: simulated latency is not finite" sg.Compute.sg_name
          else if abs_float (lat -. latency_ms) > 0.10 *. latency_ms then
            fail "%s: simulated %.6g ms vs reported %.6g ms (>10%% apart)" sg.Compute.sg_name
              lat latency_ms
          else []))

(* Every task of an [Export.result_json] payload, matched to the graph's
   partition in order. *)
let schedules device graph result =
  let tasks = Partition.partition graph in
  let jtasks = Option.value ~default:[] (Option.bind (Json.find result "tasks") Json.as_list) in
  if List.length jtasks <> List.length tasks then
    fail "result has %d tasks, the graph partitions into %d" (List.length jtasks)
      (List.length tasks)
  else
    List.concat
      (List.map2
         (fun (t : Partition.task) jt ->
           let str k = Option.bind (Json.find jt k) Json.as_string in
           let sg = t.Partition.subgraph in
           let assignment =
             match Json.find jt "assignment" with
             | Some (Json.Obj kvs) ->
               Some
                 (List.filter_map
                    (fun (k, v) -> Option.map (fun i -> (k, i)) (Json.as_int v))
                    kvs)
             | _ -> None
           in
           match
             ( str "subgraph",
               str "sketch",
               assignment,
               Option.bind (Json.find jt "best_latency_ms") Json.as_float )
           with
           | Some name, _, _, _ when name <> sg.Compute.sg_name ->
             fail "task %s reported as %s" sg.Compute.sg_name name
           | Some _, Some sketch, Some assignment, Some latency_ms ->
             schedule device sg ~sketch ~assignment ~latency_ms
           | _ -> fail "%s: malformed task entry" sg.Compute.sg_name)
         tasks jtasks)

let spearman ~min v =
  if v >= min then [] else fail "per-task Spearman %.4f below %.2f" v min

(* Measurement accounting of one traced run's registry: every attempt
   ends in exactly one outcome. *)
let measure_accounting reg =
  let c k = Telemetry.Counter.value (Telemetry.counter reg ("measure." ^ k)) in
  let outcomes = c "ok" + c "timeouts" + c "crashes" + c "invalid" in
  if c "attempts" = outcomes then []
  else fail "measure.attempts %d <> ok + timeouts + crashes + invalid = %d" (c "attempts") outcomes

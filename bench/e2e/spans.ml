(* In-memory span recorder of the benchmark's traced rep.

   Spans are recorded from the benchmark's own code, around each public
   call into a layer and between tuning-event boundaries; the library is
   not instrumented for them. A span is (name, start, end, parent, rep);
   spans of one rep share the rep id, and the parent link turns them into
   a tree from which self time is recovered. A disabled recorder records
   nothing and costs one branch per call. *)

type span = {
  id : int;
  name : string;
  start_s : float;  (** absolute wall clock, seconds *)
  end_s : float;
  parent : int;  (** 0 for a root span *)
  rep : string;
}

type t = {
  enabled : bool;
  rep : string;
  mutable next_id : int;
  mutable stack : span list;  (** open spans (end_s unset), innermost first *)
  mutable closed : span list;  (** newest first *)
}

let create ~enabled ~rep = { enabled; rep; next_id = 0; stack = []; closed = [] }
let disabled = create ~enabled:false ~rep:""
let now () = Unix.gettimeofday ()
let current t = match t.stack with s :: _ -> s.id | [] -> 0

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

(* Open a span under the innermost open one and make it the innermost. *)
let open_ t name =
  if not t.enabled then 0
  else begin
    let id = fresh_id t in
    t.stack <-
      { id; name; start_s = now (); end_s = nan; parent = current t; rep = t.rep } :: t.stack;
    id
  end

let close t id =
  if t.enabled then
    match List.partition (fun s -> s.id = id) t.stack with
    | [ s ], rest ->
      t.closed <- { s with end_s = now () } :: t.closed;
      t.stack <- rest
    | _ -> ()

let with_span t name f =
  let id = open_ t name in
  Fun.protect ~finally:(fun () -> close t id) f

(* A span whose bounds were observed elsewhere (tuning-event timestamps);
   returns its id so children can be attached. *)
let add t ~parent ~name ~start_s ~end_s =
  if not t.enabled then 0
  else begin
    let id = fresh_id t in
    t.closed <- { id; name; start_s; end_s; parent; rep = t.rep } :: t.closed;
    id
  end

let spans t = List.rev t.closed

(* --- serialisation ---------------------------------------------------------- *)

let to_json s =
  Json.Obj
    [ ("name", Json.Str s.name); ("start_s", Json.Num s.start_s); ("end_s", Json.Num s.end_s);
      ("id", Json.Num (float_of_int s.id)); ("parent", Json.Num (float_of_int s.parent));
      ("rep", Json.Str s.rep) ]

let of_json j =
  let num k = Option.bind (Json.find j k) Json.as_float in
  let int k = Option.bind (Json.find j k) Json.as_int in
  let str k = Option.bind (Json.find j k) Json.as_string in
  match (str "name", num "start_s", num "end_s", int "id", int "parent", str "rep") with
  | Some name, Some start_s, Some end_s, Some id, Some parent, Some rep ->
    Some { id; name; start_s; end_s; parent; rep }
  | _ -> None

let write_jsonl path spans =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Json.to_line (to_json s));
          output_char oc '\n')
        spans)

let read_jsonl path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match Json.parse l with Ok j -> of_json j | Error _ -> None)

(* --- self time -------------------------------------------------------------- *)

(* Length of the union of intervals, clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Per span name: (name, count, total seconds, self seconds), where self
   time is the span's duration minus the part its children cover. Rows
   are sorted by self time, largest first. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children (s.rep, s.parent)
          ((s.start_s, s.end_s)
          :: Option.value ~default:[] (Hashtbl.find_opt children (s.rep, s.parent))))
    spans;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.end_s -. s.start_s in
      let kids = Option.value ~default:[] (Hashtbl.find_opt children (s.rep, s.id)) in
      let self = dur -. covered ~lo:s.start_s ~hi:s.end_s kids in
      let n, tot, slf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt rows s.name) in
      Hashtbl.replace rows s.name (n + 1, tot +. dur, slf +. self))
    spans;
  Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) rows []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

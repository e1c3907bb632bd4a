(** Noelle.Telemetry — saving, validating and diffing what the tracing /
    metrics spine recorded (DESIGN.md §10).

    The recording machinery itself lives in {!Ir.Trace} (so the IR-layer
    solvers can report without a dependency cycle), and tools and drivers
    call it directly: [Ir.Trace.enable] installs the sink, [Ir.Trace.span]
    wraps work in a span, and so on.  This module adds the file-level
    surface on top: writing the Chrome trace-event JSON and the metrics
    dump, round-tripping a trace through the JSON parser, and diffing two
    metric dumps for regressions ([noelle-trace --compare]).

    Tracing is off by default; [Ir.Trace.enable] (or the [NOELLE_TRACE]
    environment variable) turns it on.  When off, every probe in the
    codebase is one load-and-branch. *)

module Trace = Ir.Trace
module Json = Ir.Trace.Json

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(** Write the event buffer to [path] as Chrome trace-event JSON. *)
let save_trace path = write_file path (Trace.to_chrome_json ())

(** Write the metrics registry to [path] as JSON. *)
let save_metrics path = write_file path (Trace.metrics_to_json ())

(* ------------------------------------------------------------------ *)
(* Trace validation                                                    *)
(* ------------------------------------------------------------------ *)

(** Parse a Chrome trace-event JSON back and return its events as
    (name, cat, ph) triples — the round-trip check [noelle-trace] and
    [make trace] gate on.  Raises {!Json.Parse_error} on malformed
    input and [Failure] on a structurally wrong document. *)
let validate_chrome_json (s : string) : (string * string * string) list =
  let doc = Json.parse s in
  match Json.member "traceEvents" doc with
  | None -> failwith "trace: no traceEvents array"
  | Some evs -> (
    match Json.to_list evs with
    | None -> failwith "trace: traceEvents is not an array"
    | Some l ->
      List.map
        (fun e ->
          let str field =
            match Option.bind (Json.member field e) Json.to_string with
            | Some s -> s
            | None -> failwith ("trace: event missing \"" ^ field ^ "\"")
          in
          let num field =
            match Option.bind (Json.member field e) Json.to_num with
            | Some f -> f
            | None -> failwith ("trace: event missing numeric \"" ^ field ^ "\"")
          in
          ignore (num "ts");
          (str "name", str "cat", str "ph"))
        l)

(** Span categories present in a validated trace, with event counts. *)
let layers_of (triples : (string * string * string) list) =
  let t = Hashtbl.create 8 in
  List.iter
    (fun (_, cat, ph) ->
      if ph = "X" then
        Hashtbl.replace t cat (1 + Option.value ~default:0 (Hashtbl.find_opt t cat)))
    triples;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Metrics diffing (noelle-trace --compare)                            *)
(* ------------------------------------------------------------------ *)

type delta = {
  dname : string;
  dbefore : float option;  (** None = absent in the first dump *)
  dafter : float option;   (** None = absent in the second dump *)
}

(** Parse a metrics-dump JSON into (name, scalar) pairs.  Counters and
    gauges contribute their value under their own name; a histogram
    expands into [name.count], [name.sum] and its quantile estimates
    ([name.p50] .. [name.p999] when present), so {!diff_metrics} reports
    count/sum deltas and quantile shifts instead of skipping histograms. *)
let parse_metrics (s : string) : (string * float) list =
  match Json.parse s with
  | Json.Obj kvs ->
    List.concat_map
      (fun (k, v) ->
        let num field = Option.bind (Json.member field v) Json.to_num in
        match Option.bind (Json.member "type" v) Json.to_string with
        | Some "histogram" ->
          List.filter_map
            (fun field ->
              match num field with
              | Some f -> Some (k ^ "." ^ field, f)
              | None -> None)
            [ "count"; "sum"; "p50"; "p95"; "p99"; "p999" ]
        | _ -> (
          (* counter/gauge dumps carry "value"; tolerate legacy dumps
             with a bare "sum" for histograms *)
          match num "value" with
          | Some f -> [ (k, f) ]
          | None -> (
            match num "sum" with Some f -> [ (k, f) ] | None -> [])))
      kvs
  | _ -> failwith "metrics dump: expected a JSON object"

(** Structural diff of two metric dumps: every key present in either,
    with its value on both sides. *)
let diff_metrics (a : (string * float) list) (b : (string * float) list) : delta list =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.filter_map
    (fun k ->
      let va = List.assoc_opt k a and vb = List.assoc_opt k b in
      if va = vb then None else Some { dname = k; dbefore = va; dafter = vb })
    keys

let delta_to_string (d : delta) =
  let f = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
  let pct =
    match (d.dbefore, d.dafter) with
    | Some a, Some b when a <> 0.0 ->
      Printf.sprintf " (%+.1f%%)" (100.0 *. (b -. a) /. Float.abs a)
    | _ -> ""
  in
  Printf.sprintf "%-40s %12s -> %12s%s" d.dname (f d.dbefore) (f d.dafter) pct

(** Human-readable comparison of two metric-dump files; returns the
    rendered report and the number of differing keys. *)
let compare_files patha pathb =
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let da = parse_metrics (read patha) and db = parse_metrics (read pathb) in
  let ds = diff_metrics da db in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "metrics diff: %s -> %s (%d keys differ)\n" patha pathb
       (List.length ds));
  List.iter (fun d -> Buffer.add_string b (delta_to_string d ^ "\n")) ds;
  (Buffer.contents b, List.length ds)

(** The telemetry spine's recording core (see DESIGN.md §10).

    One process-wide, *off-by-default* event buffer and metrics registry
    shared by every layer: the {!Noelle} manager's demand-driven entry
    points, the transactional pipeline, the checkers, the Andersen / DFE /
    SCEV solver loops and the Psim runtime all report through this module,
    and clients call it directly; {!Noelle.Telemetry} saves the buffer as
    a Chrome trace-event JSON and the registry as a metrics dump, and
    diffs two dumps.

    Overhead contract: when tracing is disabled (the default) every entry
    point is a single load-and-branch on {!on} — no allocation, no clock
    read, no table lookup — so instrumented hot loops cost nothing in
    ordinary runs, and [dune runtest] with [NOELLE_TRACE] unset leaves the
    buffer and the registry empty.  Enabling is explicit
    ({!enable}) or via the [NOELLE_TRACE]
    environment variable, read once at program start.

    Metric naming scheme: dot-separated [layer.object.verb] keys, e.g.
    [noelle.pdg.queries], [noelle.cache.hit], [andersen.constraints],
    [dfe.iterations], [psim.task.restarts].  Span categories name the
    layer: ["frontend"], ["analysis"], ["pipeline"], ["check"], ["psim"],
    ["serve"]. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(** Wall-clock microseconds (absolute; event timestamps are relative to
    {!enable}). *)
let now_us () = Unix.gettimeofday () *. 1e6

(** Run [f] and return (result, elapsed wall milliseconds).  Always
    measures — this is the one timing mechanism shared by [--stats]-style
    reporting and the trace buffer. *)
let time_ms f =
  let t0 = now_us () in
  let r = f () in
  (r, (now_us () -. t0) /. 1000.)

(* ------------------------------------------------------------------ *)
(* Global state                                                        *)
(* ------------------------------------------------------------------ *)

let on = ref false

(** Is the telemetry sink recording?  The one branch every instrumentation
    site is guarded by. *)
let enabled () = !on

let t0 = ref 0.0

type phase = Complete | Instant

type event = {
  ename : string;
  ecat : string;
  eph : phase;
  ets : float;                       (** µs since {!enable} *)
  edur : float;                      (** µs; 0 for instants *)
  etid : int;                        (** virtual thread (0 = main, Psim tasks use 1+tid) *)
  edepth : int;                      (** span-stack depth at open *)
  eargs : (string * string) list;
}

(* newest first; reversed by {!events} *)
let buf : event list ref = ref []
let buf_len = ref 0

(** Cap on buffered events; past it events are dropped (and counted in the
    [trace.dropped] counter) rather than exhausting memory. *)
let max_events = ref 1_000_000

let cur_tid = ref 0
let depth = ref 0

(* ------------------------------------------------------------------ *)
(* Request context                                                     *)
(* ------------------------------------------------------------------ *)

(** Correlation id of the request currently being served, if any.  Set by
    {!with_request} (from [Serve.handle_request]); {!record} stamps it
    into the args of every event emitted underneath — manager demand
    entry points, Andersen / PDG / Bounds spans included — so a slow or
    crashed request's trace rows can be grepped out by id. *)
let cur_rid : string option ref = ref None

(** Run [f] with [rid] as the ambient correlation id (exception-safe,
    restores the previous id; works whether or not tracing is on, since
    the flight recorder below is always-on). *)
let with_request rid f =
  let old = !cur_rid in
  cur_rid := Some rid;
  Fun.protect ~finally:(fun () -> cur_rid := old) f

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

(** Always-on crash-forensics ring, independent of {!on} / [NOELLE_TRACE]:
    a few hundred recent waypoints (request starts, store kill points)
    kept in a fixed array so that when a serve process dies mid-write the
    survivor can say exactly which request and which kill point were in
    flight.  Cost when idle: one array store per waypoint, no allocation
    beyond the event record itself. *)

type flight_event = {
  fts : float;  (** absolute µs ({!now_us}) — flight events outlive {!t0} resets *)
  fname : string;
  frid : string option;  (** ambient correlation id at push time *)
  fargs : (string * string) list;
}

let flight_cap = 256
let flight_ring : flight_event option array = Array.make flight_cap None
let flight_head = ref 0  (* next slot to write *)
let flight_total = ref 0 (* pushes since reset; dropped = total - cap *)

(** Push a waypoint onto the flight ring (always records, even with
    tracing off; oldest entry overwritten past {!flight_cap}). *)
let flight ?(args = []) name =
  flight_ring.(!flight_head) <-
    Some { fts = now_us (); fname = name; frid = !cur_rid; fargs = args };
  flight_head := (!flight_head + 1) mod flight_cap;
  incr flight_total

let flight_reset () =
  Array.fill flight_ring 0 flight_cap None;
  flight_head := 0;
  flight_total := 0

(** Retained flight events, oldest first. *)
let flight_events () =
  let n = min !flight_total flight_cap in
  List.init n (fun i ->
      match flight_ring.((!flight_head - n + i + flight_cap * 2) mod flight_cap) with
      | Some e -> e
      | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

(* HDR-style bucketing: log2 buckets subdivided into [sub_count] linear
   sub-buckets, so the relative width of any bucket is at most
   1/sub_count (12.5% with sub_count = 8) and a quantile estimated at a
   bucket midpoint is within half that of the true value.  Values below
   [sub_count] get exact unit buckets. *)
let sub_bits = 3
let sub_count = 1 lsl sub_bits (* 8 *)

(* one unit bucket per value < sub_count, then sub_count sub-buckets per
   log2 range up to 2^63 *)
let nbuckets = sub_count + ((63 - sub_bits) * sub_count)

type hist = {
  mutable hcount : int;
  mutable hsum : int64;
  hbuckets : int array;
      (** HDR buckets: values < [sub_count] are exact; above that, each
          power-of-two range splits into [sub_count] linear sub-buckets *)
}

type metric =
  | Counter of int64 ref   (** monotonic *)
  | Gauge of float ref
  | Histogram of hist

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let reset () =
  buf := [];
  buf_len := 0;
  depth := 0;
  cur_tid := 0;
  Hashtbl.reset registry

(** Start recording (resetting the buffer and registry unless
    [keep] is set). *)
let enable ?(keep = false) () =
  if not keep then reset ();
  t0 := now_us ();
  on := true;
  (* register the drop counter up front so [noelle-trace --check] can
     tell "zero events dropped" apart from "truncation unobserved" *)
  match Hashtbl.find_opt registry "trace.dropped" with
  | Some _ -> ()
  | None -> Hashtbl.replace registry "trace.dropped" (Counter (ref 0L))

let disable () = on := false

let record (e : event) =
  (* stamp the ambient correlation id so every span/event emitted under
     [with_request] — at any depth — can be attributed to its request *)
  let e =
    match !cur_rid with
    | Some r when not (List.mem_assoc "rid" e.eargs) ->
      { e with eargs = ("rid", r) :: e.eargs }
    | _ -> e
  in
  if !buf_len < !max_events then begin
    buf := e :: !buf;
    incr buf_len
  end
  else begin
    match Hashtbl.find_opt registry "trace.dropped" with
    | Some (Counter r) -> r := Int64.add !r 1L
    | _ -> Hashtbl.replace registry "trace.dropped" (Counter (ref 1L))
  end

(** Buffered events, chronological by close time. *)
let events () = List.rev !buf

(* -- counters -- *)

let counter_ref name =
  match Hashtbl.find_opt registry name with
  | Some (Counter r) -> r
  | Some _ -> invalid_arg (name ^ " is not a counter")
  | None ->
    let r = ref 0L in
    Hashtbl.replace registry name (Counter r);
    r

(** Register counter [name] (at 0) without incrementing it; no-op when
    disabled.  Instrumentation sites call this so that a counter whose
    value happens to be zero still appears in metric dumps — consumers
    (e.g. [noelle-trace --check]) can then tell "measured as zero" apart
    from "never instrumented". *)
let touch name = if !on then ignore (counter_ref name)

(** Add [n] (>= 0) to monotonic counter [name]; no-op when disabled. *)
let add name n =
  if !on && n > 0 then begin
    let r = counter_ref name in
    r := Int64.add !r (Int64.of_int n)
  end

let incr_m name = add name 1

(** Current value of counter [name] (0 when absent or not a counter). *)
let counter name =
  match Hashtbl.find_opt registry name with
  | Some (Counter r) -> !r
  | _ -> 0L

(* -- gauges -- *)

let set_gauge name v =
  if !on then
    match Hashtbl.find_opt registry name with
    | Some (Gauge r) -> r := v
    | Some _ -> invalid_arg (name ^ " is not a gauge")
    | None -> Hashtbl.replace registry name (Gauge (ref v))

(* -- histograms -- *)

let hist_ref name =
  match Hashtbl.find_opt registry name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg (name ^ " is not a histogram")
  | None ->
    let h = { hcount = 0; hsum = 0L; hbuckets = Array.make nbuckets 0 } in
    Hashtbl.replace registry name (Histogram h);
    h

let floor_log2 (v : int64) =
  let rec go i x =
    if Int64.compare x 1L <= 0 then i else go (i + 1) (Int64.shift_right_logical x 1)
  in
  go 0 v

(** Bucket index of value [v] (>= 0). *)
let bucket_of (v : int64) =
  if Int64.compare v (Int64.of_int sub_count) < 0 then Int64.to_int (max 0L v)
  else begin
    let m = min 62 (floor_log2 v) in
    (* linear position of the top [sub_bits] bits below the leading one *)
    let sub =
      Int64.to_int (Int64.shift_right_logical v (m - sub_bits)) - sub_count
    in
    ((m - sub_bits) * sub_count) + sub_count + sub
  end

(** Inclusive lower bound of bucket [i]. *)
let bucket_lower i =
  if i < sub_count then Int64.of_int i
  else begin
    let b = (i - sub_count) / sub_count in
    let sub = (i - sub_count) mod sub_count in
    Int64.shift_left (Int64.of_int (sub_count + sub)) b
  end

(** Width (number of distinct values) of bucket [i]. *)
let bucket_width i =
  if i < sub_count then 1L
  else Int64.shift_left 1L ((i - sub_count) / sub_count)

(** Representative midpoint of bucket [i] — the value quantile estimates
    report, within 1/(2*sub_count) relative error of anything in the
    bucket. *)
let bucket_mid i =
  let w = bucket_width i in
  Int64.add (bucket_lower i) (Int64.div (Int64.sub w 1L) 2L)

(** Record one observation of [v] (clamped at 0) into log-scale histogram
    [name]; no-op when disabled. *)
let observe name v =
  if !on then begin
    let v = if Int64.compare v 0L < 0 then 0L else v in
    let h = hist_ref name in
    h.hcount <- h.hcount + 1;
    h.hsum <- Int64.add h.hsum v;
    let b = bucket_of v in
    h.hbuckets.(b) <- h.hbuckets.(b) + 1
  end

let histogram name =
  match Hashtbl.find_opt registry name with
  | Some (Histogram h) -> Some h
  | _ -> None

(** Estimate the [q]-quantile (0 < q <= 1) of histogram [h] by cumulative
    bucket walk, reporting the midpoint of the bucket holding the target
    rank.  Relative error is bounded by half the bucket's relative width:
    <= 1/(2*sub_count) = 6.25%, well inside the 12.5% contract.  Returns
    0 for an empty histogram. *)
let quantile (h : hist) (q : float) : int64 =
  if h.hcount = 0 then 0L
  else begin
    let target =
      max 1 (min h.hcount (int_of_float (ceil (q *. float_of_int h.hcount))))
    in
    let rec walk i seen =
      if i >= nbuckets then bucket_mid (nbuckets - 1)
      else begin
        let seen = seen + h.hbuckets.(i) in
        if seen >= target then bucket_mid i else walk (i + 1) seen
      end
    in
    walk 0 0
  end

(** All registered metrics, sorted by name. *)
let metrics () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Counter metrics only, sorted — the snapshot bench rows diff. *)
let counters () =
  List.filter_map
    (fun (k, m) -> match m with Counter r -> Some (k, !r) | _ -> None)
    (metrics ())

(** Gauge metrics only, sorted — bench-derived rates and percentiles live
    here, out of the counter namespace diffed by [--compare]. *)
let gauges () =
  List.filter_map
    (fun (k, m) -> match m with Gauge r -> Some (k, !r) | _ -> None)
    (metrics ())

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sname : string;
  scat : string;
  stid : int;
  sstart : float;          (** absolute µs *)
  sdepth : int;
  mutable sargs : (string * string) list;
  slive : bool;            (** false for the disabled-path dummy *)
}

let null_span =
  { sname = ""; scat = ""; stid = 0; sstart = 0.0; sdepth = 0; sargs = []; slive = false }

let begin_span ?(cat = "") ?(args = []) name =
  if not !on then null_span
  else begin
    let s =
      { sname = name; scat = cat; stid = !cur_tid; sstart = now_us ();
        sdepth = !depth; sargs = args; slive = true }
    in
    incr depth;
    s
  end

(** Attach a tag to an open span (shown in the Chrome trace args). *)
let tag (s : span) k v = if s.slive then s.sargs <- s.sargs @ [ (k, v) ]

let end_span ?(args = []) (s : span) =
  if s.slive then begin
    depth := max 0 (!depth - 1);
    let close = now_us () in
    record
      {
        ename = s.sname;
        ecat = s.scat;
        eph = Complete;
        ets = s.sstart -. !t0;
        edur = close -. s.sstart;
        etid = s.stid;
        edepth = s.sdepth;
        eargs = s.sargs @ args;
      }
  end

(** Run [f] inside a span (exception-safe; the span closes either way,
    tagged [raised=exn] if [f] raised). *)
let span ?cat ?args name f =
  if not !on then f ()
  else begin
    let s = begin_span ?cat ?args name in
    match f () with
    | r ->
      end_span s;
      r
    | exception e ->
      tag s "raised" (Printexc.to_string e);
      end_span s;
      raise e
  end

(** {!time_ms} that also records the interval as a span when enabled:
    the single timing mechanism for [--stats]-style reports. *)
let timed_span ?cat ?args name f =
  if not !on then time_ms f
  else begin
    let s = begin_span ?cat ?args name in
    match time_ms f with
    | r, ms ->
      tag s "ms" (Printf.sprintf "%.3f" ms);
      end_span s;
      (r, ms)
    | exception e ->
      tag s "raised" (Printexc.to_string e);
      end_span s;
      raise e
  end

(** Record a complete event whose opening time was captured earlier with
    {!now_us} (used by Psim for per-task swimlanes, where fibers
    interleave and a stack discipline does not hold). *)
let complete ?(cat = "") ?(args = []) ?tid ~start_us name =
  if !on then
    record
      {
        ename = name;
        ecat = cat;
        eph = Complete;
        ets = start_us -. !t0;
        edur = now_us () -. start_us;
        etid = (match tid with Some t -> t | None -> !cur_tid);
        edepth = !depth;
        eargs = args;
      }

(* ------------------------------------------------------------------ *)
(* JSON (emission and parsing)                                         *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** A minimal JSON reader, used to round-trip-validate the Chrome trace
    and to parse metric dumps for [noelle-trace --compare]. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let error msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> error (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else error ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then error "unterminated string";
        match s.[!pos] with
        | '"' -> advance (); Buffer.contents b
        | '\\' ->
          advance ();
          if !pos >= n then error "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if !pos + 4 >= n then error "truncated \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> error "bad \\u escape"
            in
            (* UTF-8 encode (we only ever emit < 0x80, but accept more) *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            pos := !pos + 4
          | c -> error (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
        | c -> Buffer.add_char b c; advance (); go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when num_char c -> true | _ -> false) do
        advance ()
      done;
      if !pos = start then error "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> error "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> error "expected ',' or '}'"
          in
          members []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); Arr [] end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elems (v :: acc)
            | Some ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> error "expected ',' or ']'"
          in
          elems []
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
      | None -> error "unexpected end of input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let to_list = function Arr l -> Some l | _ -> None
  let to_string = function Str s -> Some s | _ -> None
  let to_num = function Num f -> Some f | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let args_to_json args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)) args)
  ^ "}"

let event_to_json (e : event) =
  match e.eph with
  | Complete ->
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
       \"pid\":1,\"tid\":%d,\"args\":%s}"
      (json_escape e.ename)
      (json_escape (if e.ecat = "" then "default" else e.ecat))
      e.ets e.edur e.etid
      (args_to_json (("depth", string_of_int e.edepth) :: e.eargs))
  | Instant ->
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,\"s\":\"t\",\
       \"pid\":1,\"tid\":%d,\"args\":%s}"
      (json_escape e.ename)
      (json_escape (if e.ecat = "" then "default" else e.ecat))
      e.ets e.etid (args_to_json e.eargs)

(** The whole buffer as Chrome trace-event JSON (object format: loadable
    in Perfetto / [chrome://tracing]). *)
let to_chrome_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (event_to_json e))
    (events ());
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let hist_to_json (h : hist) =
  let buckets =
    Array.to_list h.hbuckets
    |> List.mapi (fun i c -> (i, c))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.map (fun (i, c) -> Printf.sprintf "\"%Ld\":%d" (bucket_lower i) c)
  in
  let pcts =
    if h.hcount = 0 then ""
    else
      Printf.sprintf ",\"p50\":%Ld,\"p95\":%Ld,\"p99\":%Ld,\"p999\":%Ld"
        (quantile h 0.5) (quantile h 0.95) (quantile h 0.99) (quantile h 0.999)
  in
  Printf.sprintf
    "{\"type\":\"histogram\",\"count\":%d,\"sum\":%Ld%s,\"buckets\":{%s}}"
    h.hcount h.hsum pcts (String.concat "," buckets)

(** The flight ring as JSON — what [noelle-serve] dumps to
    [_serve/flight.json] on trap and crash recovery replays. *)
let flight_to_json () =
  let ev (e : flight_event) =
    let rid =
      match e.frid with
      | Some r -> Printf.sprintf ",\"rid\":\"%s\"" (json_escape r)
      | None -> ""
    in
    Printf.sprintf "{\"ts\":%.3f,\"name\":\"%s\"%s,\"args\":%s}" e.fts
      (json_escape e.fname) rid (args_to_json e.fargs)
  in
  Printf.sprintf "{\"flightEvents\":[%s],\"dropped\":%d}"
    (String.concat "," (List.map ev (flight_events ())))
    (max 0 (!flight_total - flight_cap))

(** The metrics registry as a flat JSON object, sorted by key — the dump
    [noelle-trace --compare] diffs. *)
let metrics_to_json () =
  let entry (name, m) =
    let v =
      match m with
      | Counter r -> Printf.sprintf "{\"type\":\"counter\",\"value\":%Ld}" !r
      | Gauge r -> Printf.sprintf "{\"type\":\"gauge\",\"value\":%.6g}" !r
      | Histogram h -> hist_to_json h
    in
    Printf.sprintf "\"%s\":%s" (json_escape name) v
  in
  "{" ^ String.concat "," (List.map entry (metrics ())) ^ "}"

(* read NOELLE_TRACE once at program start: any non-empty value other
   than "0" turns the sink on *)
let () =
  match Sys.getenv_opt "NOELLE_TRACE" with
  | Some "" | Some "0" | None -> ()
  | Some _ -> enable ()

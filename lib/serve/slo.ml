(** Service-level objectives of the serve loop (DESIGN.md §15).

    A spec ([slo.json]) holds per-kind p99 latency budgets, a maximum
    shed percentage and a maximum deadline-miss count.  {!measure} runs
    a call and reads the per-kind [serve.latency_us.*] HDR histograms as
    their change across that call, so samples observed earlier in the
    same process are not counted.  {!table} and {!prometheus} render the
    measured window; {!evaluate} lists the objectives it violates. *)

module Trace = Ir.Trace
module Json = Trace.Json

(** Request kinds with a latency histogram (see [Serve.kind_label]). *)
let kinds = [ "edit"; "deps"; "bounds"; "loops" ]

let hist_name kind = "serve.latency_us." ^ kind

(* ------------------------------------------------------------------ *)
(* Spec                                                                *)
(* ------------------------------------------------------------------ *)

type spec = {
  p99_us : (string * int64) list;  (** per-kind p99 budget *)
  max_shed_pct : float;
  max_deadline_misses : int;
}

exception Bad_key of string * string

(** Load a spec.  An absent top-level key leaves that objective
    unconstrained, but every key present must be known and every value a
    number: a typo must not silently drop a budget.  The error names the
    file and the offending key. *)
let load (path : string) : (spec, string) result =
  let bad key fmt = Printf.ksprintf (fun s -> raise (Bad_key (key, s))) fmt in
  let num key v =
    match Json.to_num v with Some f -> f | None -> bad key "expected a number"
  in
  let obj key = function
    | Json.Obj kvs -> kvs
    | _ -> bad key "expected an object"
  in
  let budget kind v =
    let key = "kinds." ^ kind in
    if not (List.mem kind kinds) then
      bad key "unknown request kind (expected %s)" (String.concat ", " kinds);
    match obj key v with
    | [ ("p99_us", b) ] -> (kind, Int64.of_float (num (key ^ ".p99_us") b))
    | kvs -> (
      match List.find_opt (fun (k, _) -> k <> "p99_us") kvs with
      | Some (k, _) -> bad (key ^ "." ^ k) "unknown key (expected p99_us)"
      | None -> bad key "expected exactly one p99_us")
  in
  let field spec (k, v) =
    match k with
    | "kinds" -> { spec with p99_us = List.map (fun (kd, b) -> budget kd b) (obj k v) }
    | "max_shed_pct" -> { spec with max_shed_pct = num k v }
    | "max_deadline_misses" -> { spec with max_deadline_misses = int_of_float (num k v) }
    | _ -> bad k "unknown key (expected kinds, max_shed_pct, max_deadline_misses)"
  in
  let unconstrained =
    { p99_us = []; max_shed_pct = 100.0; max_deadline_misses = max_int }
  in
  match
    List.fold_left field unconstrained
      (obj "(top level)" (Json.parse (Store.read_all path)))
  with
  | spec -> Ok spec
  | exception Sys_error e -> Error e
  | exception Json.Parse_error e -> Error (Printf.sprintf "%s: %s" path e)
  | exception Bad_key (key, what) -> Error (Printf.sprintf "%s: %s: %s" path key what)

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type row = {
  kind : string;
  count : int;
  sum : int64;
  p50 : int64;
  p95 : int64;
  p99 : int64;
  p999 : int64;
}

(** What one measured call did: the kinds it observed (in {!kinds}
    order), and its share of shed dependence queries and deadline
    misses. *)
type window = { rows : row list; shed_pct : float; deadline_misses : int }

(* a copy: the registry's histograms are updated in place *)
let hist_snapshot kind =
  match Trace.histogram (hist_name kind) with
  | Some h -> { h with Trace.hbuckets = Array.copy h.Trace.hbuckets }
  | None -> { Trace.hcount = 0; hsum = 0L; hbuckets = Array.make Trace.nbuckets 0 }

(** Run [f] and measure the serve loop's latency percentiles, shedding
    and deadline misses as the change across the call.  Needs the trace
    sink on; with it off the window has no rows. *)
let measure (f : unit -> 'a) : 'a * window =
  let since name =
    let c0 = Trace.counter name in
    fun () -> Int64.to_int (Int64.sub (Trace.counter name) c0)
  in
  let queries = since "serve.queries"
  and shed = since "serve.shed"
  and misses = since "serve.deadline_misses" in
  let before = List.map (fun kind -> (kind, hist_snapshot kind)) kinds in
  let x = f () in
  let rows =
    List.filter_map
      (fun (kind, (b : Trace.hist)) ->
        let a = hist_snapshot kind in
        let d =
          {
            Trace.hcount = a.Trace.hcount - b.Trace.hcount;
            hsum = Int64.sub a.Trace.hsum b.Trace.hsum;
            hbuckets = Array.map2 ( - ) a.Trace.hbuckets b.Trace.hbuckets;
          }
        in
        if d.Trace.hcount = 0 then None
        else
          let q = Trace.quantile d in
          Some
            { kind; count = d.Trace.hcount; sum = d.Trace.hsum; p50 = q 0.5;
              p95 = q 0.95; p99 = q 0.99; p999 = q 0.999 })
      before
  in
  let shed_pct =
    if queries () = 0 then 0.0
    else 100.0 *. float_of_int (shed ()) /. float_of_int (queries ())
  in
  (x, { rows; shed_pct; deadline_misses = misses () })

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

(** The per-kind percentile table. *)
let table (w : window) : string =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  line "%-8s %8s %12s %12s %12s %12s\n" "kind" "count" "p50_us" "p95_us"
    "p99_us" "p999_us";
  List.iter
    (fun r ->
      line "%-8s %8d %12Ld %12Ld %12Ld %12Ld\n" r.kind r.count r.p50 r.p95
        r.p99 r.p999)
    w.rows;
  Buffer.contents b

(** Prometheus text exposition: a summary per kind plus the shed and
    deadline-miss gauges the SLO also gates on. *)
let prometheus (w : window) : string =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  line "# HELP noelle_serve_latency_us request latency by kind (microseconds)\n";
  line "# TYPE noelle_serve_latency_us summary\n";
  List.iter
    (fun r ->
      List.iter
        (fun (q, v) ->
          line "noelle_serve_latency_us{kind=\"%s\",quantile=\"%s\"} %Ld\n"
            r.kind q v)
        [ ("0.5", r.p50); ("0.95", r.p95); ("0.99", r.p99); ("0.999", r.p999) ];
      line "noelle_serve_latency_us_sum{kind=\"%s\"} %Ld\n" r.kind r.sum;
      line "noelle_serve_latency_us_count{kind=\"%s\"} %d\n" r.kind r.count)
    w.rows;
  line "# HELP noelle_serve_shed_pct shed dependence queries (percent)\n";
  line "# TYPE noelle_serve_shed_pct gauge\n";
  line "noelle_serve_shed_pct %.3f\n" w.shed_pct;
  line "# HELP noelle_serve_deadline_misses requests that exhausted the store deadline\n";
  line "# TYPE noelle_serve_deadline_misses counter\n";
  line "noelle_serve_deadline_misses %d\n" w.deadline_misses;
  Buffer.contents b

(** The objectives [w] violates; [[]] means the SLO holds. *)
let evaluate (spec : spec) (w : window) : string list =
  let viol = ref [] in
  let add fmt = Printf.ksprintf (fun s -> viol := s :: !viol) fmt in
  List.iter
    (fun r ->
      match List.assoc_opt r.kind spec.p99_us with
      | Some budget when Int64.compare r.p99 budget > 0 ->
        add "%s: p99 %Ldus exceeds budget %Ldus" r.kind r.p99 budget
      | _ -> ())
    w.rows;
  (* a kind with a budget but no observations means the workload never
     exercised it — that is a measurement hole, not a pass *)
  List.iter
    (fun (k, _) ->
      if not (List.exists (fun r -> r.kind = k) w.rows) then
        add "%s: budgeted but never measured" k)
    spec.p99_us;
  if w.shed_pct > spec.max_shed_pct then
    add "shed %.1f%% exceeds max %.1f%%" w.shed_pct spec.max_shed_pct;
  if w.deadline_misses > spec.max_deadline_misses then
    add "deadline misses %d exceed max %d" w.deadline_misses
      spec.max_deadline_misses;
  List.rev !viol

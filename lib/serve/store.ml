(** Crash-consistent on-disk artifact store for the serve loop.

    Layout (DESIGN.md §14):

    {v
    <root>/
      journal                    append-only intent/commit log
      quarantine/                corrupt artifacts, moved aside for forensics
      <module>/<shard>/<fn>.<kind>.art
    v}

    Each [.art] file is a {!Noelle.Trust} stamp line, an [afp] dependency
    line (the Andersen solution fingerprint the artifact was computed
    under, ["-"] when the artifact has no interprocedural inputs), then
    the payload:

    {v
    v=1 tool=noelle-serve fp=<func-fp> sum=<hex>
    afp <hex|->
    <payload ...>
    v}

    [sum] checksums the afp line and the payload together, so a torn
    write, a truncation or a flipped bit anywhere below the stamp is
    caught on read.  Writes are crash-consistent: an intent record is
    journaled, the content goes to a [.tmp] sibling, the sibling is
    atomically renamed over the target, and a commit record is journaled.
    Recovery replays the journal — every intent without a matching commit
    names a path whose state is unknown, so its temp file is discarded
    and the target re-verified — then sweeps all artifacts, quarantining
    anything whose checksum fails.  The result is byte-equivalent or
    recomputed, never stale.

    Faults from {!Ir.Faultgen.serve_kind} are armed with {!arm}; a kill
    raises {!Killed} at one of three sub-points inside {!write}
    (half-written temp / full temp before rename / after rename before
    the commit record), a stall makes reads of one shard raise
    {!Transient} until a deadline tick passes. *)

open Ir
module Trust = Noelle.Trust

(** Simulated process death mid-write ([Faultgen.Kill_mid_write]). *)
exception Killed of string

(** Transient shard fault ([Faultgen.Stall_shard]): retryable. *)
exception Transient of string

let tool = "noelle-serve"

type key = {
  kmod : string;  (** module (corpus member) name *)
  kshard : string;  (** call-graph SCC shard id *)
  kfn : string;  (** function name *)
  kkind : string;  (** ["pdg"] | ["bounds"] | ["loops"] *)
}

type verdict =
  | Hit of string  (** verified payload *)
  | Miss_absent
  | Miss_stale of string  (** stamped-for fingerprint *)
  | Miss_corrupt of string  (** reason; artifact already quarantined *)

type recovery = {
  r_pending : int;  (** journaled intents without a commit record *)
  r_quarantined : int;  (** artifacts failing verification at startup *)
  r_live : int;  (** artifacts that survived the sweep *)
}

type t = {
  root : string;
  mutable jout : out_channel option;
  mutable armed : Faultgen.serve_kind option;
  mutable kill_point : int;  (** 0 half-temp | 1 full-temp | 2 pre-commit *)
  mutable stalled : (string * int) option;  (** shard dir, expiry tick *)
  mutable last_recovery : recovery;
  mutable qcount : int;  (** artifacts quarantined over this handle's lifetime *)
}

(* ------------------------------------------------------------------ *)
(* Filesystem helpers                                                  *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path)
    else Sys.remove path

let read_all path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_string oc s = output_string oc s

(** Every artifact file under [root], as paths relative to [root],
    sorted (deterministic iteration order for fault targeting). *)
let artifact_files (t : t) : string list =
  let out = ref [] in
  let rec walk rel =
    let abs = if rel = "" then t.root else Filename.concat t.root rel in
    if Sys.file_exists abs && Sys.is_directory abs then
      Array.iter
        (fun e ->
          let rel' = if rel = "" then e else Filename.concat rel e in
          if rel = "" && (e = "journal" || e = "quarantine") then ()
          else if Sys.is_directory (Filename.concat t.root rel') then walk rel'
          else if Filename.check_suffix e ".art" then out := rel' :: !out)
        (Sys.readdir abs)
  in
  walk "";
  List.sort String.compare !out

(* ------------------------------------------------------------------ *)
(* Artifact file format                                                *)
(* ------------------------------------------------------------------ *)

let shard_dir t (k : key) = Filename.concat (Filename.concat t.root k.kmod) k.kshard
let art_path t (k : key) =
  Filename.concat (shard_dir t k) (Printf.sprintf "%s.%s.art" k.kfn k.kkind)

let body_sum ~afp ~payload =
  Fingerprint.(to_hex (feed (feed seed afp) payload))

let render ~fp ~afp ~payload =
  let stamp =
    Trust.stamp_to_string
      { Trust.schema = Trust.schema_version; tool; fp; sum = body_sum ~afp ~payload }
  in
  Printf.sprintf "%s\nafp %s\n%s" stamp afp payload

(** Structural verification only (stamp well-formed, checksum matches);
    staleness against the live code is the caller's concern. *)
let parse (content : string) : (Trust.stamp * string * string, string) result =
  if String.length content = 0 then Error "zero-length artifact"
  else
    match String.index_opt content '\n' with
    | None -> Error "missing afp line"
    | Some i -> (
      let stamp_line = String.sub content 0 i in
      let rest = String.sub content (i + 1) (String.length content - i - 1) in
      match Trust.stamp_of_string stamp_line with
      | None -> Error "malformed stamp"
      | Some s ->
        if s.Trust.schema <> Trust.schema_version then
          Error (Printf.sprintf "schema v=%d" s.Trust.schema)
        else
          match String.index_opt rest '\n' with
          | None -> Error "truncated after afp line"
          | Some j ->
            let afp_line = String.sub rest 0 j in
            let payload = String.sub rest (j + 1) (String.length rest - j - 1) in
            if String.length afp_line < 5 || String.sub afp_line 0 4 <> "afp "
            then Error "malformed afp line"
            else
              let afp = String.sub afp_line 4 (String.length afp_line - 4) in
              if s.Trust.sum <> body_sum ~afp ~payload then
                Error "payload checksum mismatch"
              else Ok (s, afp, payload))

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let journal_path t = Filename.concat t.root "journal"

let journal t record rel =
  match t.jout with
  | None -> ()
  | Some oc ->
    output_string oc (Printf.sprintf "%s %s\n" record rel);
    flush oc

(** Intents without a matching commit.  The last line may be torn (the
    process died mid-append): anything that does not parse is ignored —
    a torn intent means the write never reached the rename, a torn
    commit means the target will be re-verified, both safe. *)
let journal_pending path : string list =
  if not (Sys.file_exists path) then []
  else begin
    let pending = Hashtbl.create 8 in
    String.split_on_char '\n' (read_all path)
    |> List.iter (fun line ->
           match String.index_opt line ' ' with
           | Some 1 when String.length line > 2 -> (
             let rel = String.sub line 2 (String.length line - 2) in
             match line.[0] with
             | 'W' -> Hashtbl.replace pending rel ()
             | 'C' -> Hashtbl.remove pending rel
             | _ -> ())
           | _ -> ());
    Hashtbl.fold (fun rel () acc -> rel :: acc) pending []
    |> List.sort String.compare
  end

(* ------------------------------------------------------------------ *)
(* Quarantine                                                          *)
(* ------------------------------------------------------------------ *)

let quarantine_file t rel =
  let qdir = Filename.concat t.root "quarantine" in
  mkdir_p qdir;
  let flat = String.map (fun c -> if c = '/' then '.' else c) rel in
  let rec fresh n =
    let cand =
      Filename.concat qdir (if n = 0 then flat else Printf.sprintf "%s.%d" flat n)
    in
    if Sys.file_exists cand then fresh (n + 1) else cand
  in
  let src = Filename.concat t.root rel in
  if Sys.file_exists src then begin
    Sys.rename src (fresh 0);
    t.qcount <- t.qcount + 1;
    Trace.incr_m "serve.quarantined"
  end

(* ------------------------------------------------------------------ *)
(* Open / recovery                                                     *)
(* ------------------------------------------------------------------ *)

let register_counters () =
  List.iter Trace.touch
    [
      "serve.store.hits"; "serve.store.misses"; "serve.store.stale";
      "serve.store.corrupt"; "serve.store.writes"; "serve.quarantined";
      "serve.recovery.pending"; "serve.recovery.tmp_discarded";
    ]

(** Open the store at [root], running crash recovery: replay the journal
    (discard temp files of uncommitted writes, re-verify their targets),
    sweep every artifact and quarantine corrupt ones, truncate the
    journal.  Idempotent on a clean store. *)
let open_store (root : string) : t =
  register_counters ();
  mkdir_p root;
  let t =
    {
      root;
      jout = None;
      armed = None;
      kill_point = 0;
      stalled = None;
      last_recovery = { r_pending = 0; r_quarantined = 0; r_live = 0 };
      qcount = 0;
    }
  in
  (* 1. journal replay: uncommitted intents have unknown on-disk state *)
  let pending = journal_pending (journal_path t) in
  List.iter
    (fun rel ->
      let tmp = Filename.concat t.root (rel ^ ".tmp") in
      if Sys.file_exists tmp then begin
        Sys.remove tmp;
        Trace.incr_m "serve.recovery.tmp_discarded"
      end)
    pending;
  Trace.add "serve.recovery.pending" (List.length pending);
  (* 2. stray temp files from crashes that never reached the journal
        commit: discard (the rename never happened, or happened and the
        temp is a later half-write) *)
  let rec sweep_tmp dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      Array.iter
        (fun e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then
            (if e <> "quarantine" || dir <> t.root then sweep_tmp p)
          else if Filename.check_suffix e ".tmp" then Sys.remove p)
        (Sys.readdir dir)
  in
  sweep_tmp t.root;
  (* 3. full verification sweep: quarantine anything structurally bad *)
  let quarantined = ref 0 and live = ref 0 in
  List.iter
    (fun rel ->
      match parse (read_all (Filename.concat t.root rel)) with
      | Ok _ -> incr live
      | Error _ ->
        quarantine_file t rel;
        incr quarantined)
    (artifact_files t);
  (* 4. the journal's work is done: truncate and reopen for appending *)
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 (journal_path t) in
  t.jout <- Some oc;
  t.last_recovery <-
    { r_pending = List.length pending; r_quarantined = !quarantined; r_live = !live };
  t

let close t =
  (match t.jout with Some oc -> close_out oc | None -> ());
  t.jout <- None

(* ------------------------------------------------------------------ *)
(* Fault arming                                                        *)
(* ------------------------------------------------------------------ *)

(** Arm one serve fault.  Kills trigger at the next {!write}; truncation
    and bit-flips are applied immediately to a deterministically chosen
    existing artifact; a stall marks one shard directory transient until
    tick [now + stall_ticks]. *)
let arm (t : t) (k : Faultgen.serve_kind) ~(seed : int) ~(now : int)
    ~(stall_ticks : int) : unit =
  match k with
  | Faultgen.Kill_mid_write ->
    t.armed <- Some k;
    t.kill_point <- seed mod 3
  | Faultgen.Truncate_artifact | Faultgen.Bitflip_artifact -> (
    match artifact_files t with
    | [] -> ()
    | files ->
      let rel = List.nth files (abs seed mod List.length files) in
      let path = Filename.concat t.root rel in
      let content = read_all path in
      let n = String.length content in
      let oc = open_out_bin path in
      (match k with
      | Faultgen.Truncate_artifact ->
        (* cut to a prefix; seed mod 4 = 0 gives the zero-length shape *)
        write_string oc (String.sub content 0 (n * (abs seed mod 4) / 4))
      | _ ->
        let b = Bytes.of_string content in
        let pos = abs seed mod n in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x41));
        write_string oc (Bytes.to_string b));
      close_out oc)
  | Faultgen.Stall_shard -> (
    (* pick an existing shard dir (module/shard) to stall *)
    match artifact_files t with
    | [] -> ()
    | files ->
      let rel = List.nth files (abs seed mod List.length files) in
      t.stalled <- Some (Filename.dirname rel, now + stall_ticks))

(* ------------------------------------------------------------------ *)
(* Lookup / write                                                      *)
(* ------------------------------------------------------------------ *)

let check_stall t (k : key) ~now =
  match t.stalled with
  | Some (dir, until) when now < until ->
    let this = Filename.concat k.kmod k.kshard in
    if this = dir then raise (Transient (Printf.sprintf "shard %s stalled" dir))
  | Some (_, until) when now >= until -> t.stalled <- None
  | _ -> ()

(** Verified lookup: structural checks (stamp, schema, checksum) then
    the same keep/quarantine decision the in-memory caches use
    ({!Noelle.reconcile_artifact}) against the live code fingerprint,
    plus the [afp] dependency against the live Andersen solution. *)
let lookup (t : t) (k : key) ~(fp : string) ~(afp : string) ~(now : int) :
    verdict =
  check_stall t k ~now;
  let path = art_path t k in
  if not (Sys.file_exists path) then begin
    Trace.incr_m "serve.store.misses";
    Miss_absent
  end
  else
    match parse (read_all path) with
    | Error why ->
      let rel =
        Filename.concat (Filename.concat k.kmod k.kshard)
          (Filename.basename path)
      in
      quarantine_file t rel;
      Trace.incr_m "serve.store.corrupt";
      Miss_corrupt why
    | Ok (s, stored_afp, payload) -> (
      match Noelle.reconcile_artifact ~current:(Some fp) ~stamped:s.Trust.fp with
      | `Drop ->
        Trace.incr_m "serve.store.stale";
        Miss_stale s.Trust.fp
      | `Keep ->
        if stored_afp <> afp then begin
          Trace.incr_m "serve.store.stale";
          Miss_stale s.Trust.fp
        end
        else begin
          Trace.incr_m "serve.store.hits";
          Hit payload
        end)

(** Crash-consistent write: journal intent → temp file → atomic rename →
    journal commit.  An armed kill fires at sub-point [kill_point]. *)
let write (t : t) (k : key) ~(fp : string) ~(afp : string)
    ~(payload : string) : unit =
  mkdir_p (shard_dir t k);
  let path = art_path t k in
  let rel =
    Filename.concat (Filename.concat k.kmod k.kshard) (Filename.basename path)
  in
  journal t "W" rel;
  let content = render ~fp ~afp ~payload in
  let tmp = path ^ ".tmp" in
  let kill = t.armed = Some Faultgen.Kill_mid_write in
  if kill then begin
    t.armed <- None;
    let die point =
      (* waypoint for the flight recorder: the post-mortem dump must name
         the exact kill sub-point (and, via the ambient rid, the request)
         that was in flight when the process died *)
      Trace.flight "store.kill"
        ~args:[ ("point", string_of_int point); ("rel", rel) ];
      close t;
      raise (Killed (Printf.sprintf "kill-mid-write@%d %s" point rel))
    in
    match t.kill_point with
    | 0 ->
      (* torn temp: half the content, no rename *)
      let oc = open_out_bin tmp in
      write_string oc (String.sub content 0 (String.length content / 2));
      close_out oc;
      die 0
    | 1 ->
      (* complete temp, crash before rename *)
      let oc = open_out_bin tmp in
      write_string oc content;
      close_out oc;
      die 1
    | _ ->
      (* renamed but crash before the commit record: recovery must
         re-verify the (valid) target *)
      let oc = open_out_bin tmp in
      write_string oc content;
      close_out oc;
      Sys.rename tmp path;
      die 2
  end
  else begin
    let oc = open_out_bin tmp in
    write_string oc content;
    close_out oc;
    Sys.rename tmp path;
    journal t "C" rel;
    Trace.incr_m "serve.store.writes"
  end


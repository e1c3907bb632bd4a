(** noelle-fuzz — generate micro test programs (§2.4).

    The paper's testing infrastructure lets users "surgically generate
    tests that stress a specific aspect of a specific code transformation";
    this tool exposes the deterministic program generator: pick a seed and
    the pattern knobs, get a Mini-C file (or its compiled IR), optionally
    run a named tool over it as one transactional pipeline pass and count
    every rollback (verifier or behaviour gate) as a failure. *)

open Cmdliner

let knobs : (string * (Bsuite.Generator.cfg -> Bsuite.Generator.cfg)) list =
  [ ("no-ifs", fun c -> { c with allow_ifs = false });
    ("no-recurrences", fun c -> { c with allow_recurrences = false });
    ("no-helpers", fun c -> { c with allow_helpers = false });
    ("no-indirect", fun c -> { c with allow_indirect = false });
    ("deep", fun c -> { c with max_depth = 3; iters = 8 }) ]

(* each tool as a pipeline pass: its license is the one its
   Ntools.Passes constructor grants *)
let tools : (string * (Noelle.t -> Noelle.Pipeline.pass)) list =
  [ ("licm", Ntools.Passes.licm);
    ("doall", fun n -> Ntools.Passes.doall n);
    ("helix", fun n -> Ntools.Passes.helix n);
    ("dswp", fun n -> Ntools.Passes.dswp n);
    ("time", fun n ->
        Ntools.Passes.mk "time" (fun m ->
            let s = Ntools.Timesqueezer.run n m in
            Printf.sprintf "swapped %d compares" s.Ntools.Timesqueezer.cmps_swapped)) ]

let fuel = 12_000_000

(* run [pass] over [m] behind the verifier and the behaviour gate; the
   profile it plans from is embedded first *)
let check_seed seed pass (m : Ir.Irmod.t) =
  let p, _ = Noelle.Profiler.run ~fuel:3_000_000 m in
  Noelle.Profiler.embed p m;
  let n = Noelle.create m in
  let report =
    Noelle.Pipeline.run ~config:(Ntools.Passes.config ~fuel n) m [ pass n ]
  in
  List.iter
    (fun (e : Noelle.Pipeline.entry) ->
      Printf.printf "seed %d: %s\n" seed
        (Noelle.Pipeline.outcome_to_string e.Noelle.Pipeline.eoutcome);
      List.iter print_endline e.Noelle.Pipeline.etrace_diff)
    (Noelle.Pipeline.rolled_back report);
  Noelle.Pipeline.rolled_back report = [] && report.Noelle.Pipeline.final_ok

let run seed count out_dir emit_ir check knobs =
  let cfg = List.fold_left (fun c k -> k c) Bsuite.Generator.default_cfg knobs in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let failures = ref 0 in
  for s = seed to seed + count - 1 do
    let src = Bsuite.Generator.program ~cfg s in
    let path = Filename.concat out_dir (Printf.sprintf "fuzz%04d.mc" s) in
    let oc = open_out path in
    output_string oc src;
    close_out oc;
    let m = Minic.Lower.compile ~name:(Printf.sprintf "fuzz%04d" s) src in
    if emit_ir then
      Ir.Printer.to_file m (Filename.concat out_dir (Printf.sprintf "fuzz%04d.ir" s));
    match check with
    | Some (_, pass) -> if not (check_seed s pass m) then incr failures
    | None -> ()
  done;
  Printf.printf "noelle-fuzz: wrote %d programs to %s%s\n" count out_dir
    (match check with
    | Some (t, _) -> Printf.sprintf "; checked %s: %d failures" t !failures
    | None -> "");
  if !failures > 0 then 1 else 0

let names table = String.concat "|" (List.map fst table)

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N")
let count = Arg.(value & opt int 10 & info [ "count"; "n" ] ~docv:"N")
let out_dir = Arg.(value & opt string "fuzz-out" & info [ "o" ] ~docv:"DIR")
let emit_ir = Arg.(value & flag & info [ "ir" ] ~doc:"also emit compiled IR")
let check =
  Arg.(value
       & opt (some (enum (List.map (fun ((name, _) as t) -> (name, t)) tools))) None
       & info [ "check" ] ~docv:"TOOL"
           ~doc:(Printf.sprintf "differentially check a tool (%s)" (names tools)))
let knobs =
  Arg.(value & opt_all (enum knobs) [] & info [ "knob" ] ~docv:"K"
         ~doc:(Printf.sprintf "pattern knobs (%s)" (names knobs)))

let cmd =
  Cmd.v
    (Cmd.info "noelle-fuzz" ~doc:"Generate micro test programs (testing infrastructure)")
    Term.(const run $ seed $ count $ out_dir $ emit_ir $ check $ knobs)

let () = exit (Cmd.eval' cmd)

(** Version stamps against printed text ({!Version_oracle}).

    Every Faultgen plant, every standard pass over the corpus (commits
    and rollbacks) and the serve layer's edits run under the checker: a
    function or module whose version did not move must print as it did.
    The converse keeps the caches' hit counts what printed text gave: no
    plant or pass draws a new version and leaves the text as it was, and
    a pass that changes nothing leaves every version alone, so the
    pipeline reuses its run. *)

open Ir
open Helpers

(* every Faultgen plant: the two sanitizer plants are in no list *)
let all_plants =
  Faultgen.transform_kinds @ Faultgen.metadata_kinds @ Faultgen.observable_kinds
  @ Faultgen.[ Uninit_load; Wild_store ]

(* a fuzz module with a profile and every function's PDG embedded, so the
   metadata plants find sites *)
let embedded seed =
  let m = Minic.Lower.compile ~name:"fuzz" (Bsuite.Generator.program seed) in
  let p, _ = Noelle.Profiler.run ~fuel:2_000_000 m in
  Noelle.Profiler.embed p m;
  let n = Noelle.create m in
  List.iter (fun f -> Noelle.Pdg.embed (Noelle.pdg n f)) (Irmod.defined_functions m);
  m

let test_plants () =
  let bases =
    List.map (fun seed -> (embedded seed, Version_oracle.create ())) [ 1; 2; 3; 4; 5; 6 ]
  in
  List.iter
    (fun kind ->
      let planted = ref 0 in
      List.iteri
        (fun i (base, o) ->
          for seed = 1 to 4 do
            let m = Irmod.copy base in
            let where =
              Printf.sprintf "%s, module %d, seed %d" (Faultgen.kind_to_string kind) i seed
            in
            Version_oracle.check o ~where:(where ^ " (before)") m;
            match Faultgen.inject ~kinds:[ kind ] ~seed m with
            | None -> ()
            | Some _ ->
              incr planted;
              Version_oracle.check o ~where m
          done)
        bases;
      checkb (Faultgen.kind_to_string kind ^ ": planted") (!planted > 0))
    all_plants;
  List.iteri
    (fun i (_, o) ->
      checkb (Printf.sprintf "module %d: versions seen again" i) (o.Version_oracle.checked > 100);
      checki (Printf.sprintf "module %d: versions redrawn over the same text" i) 0
        o.Version_oracle.redrawn)
    bases

(* the behaviour every differential run reports: the tests here are
   about versions, not verdicts, so nothing is executed *)
let same_behaviour : Obs.behaviour =
  { Obs.result = Ok "exit=0\n"; trace = []; clock = 0L }

(* the standard stack over [m], with the oracle at every point a cache or
   the reuse key is consulted: before and after each pass, after each
   invalidation (rollbacks included) and for each candidate *)
let checked_standard o ~name ?inject m =
  let n = Noelle.create m in
  let config = Ntools.Passes.config n in
  let config =
    {
      config with
      Noelle.Pipeline.exec =
        (fun m ~args:_ ~fuel:_ ->
          Version_oracle.check o ~where:(name ^ ": candidate") m;
          same_behaviour);
      on_change =
        (fun () ->
          Version_oracle.check o ~where:(name ^ ": change") m;
          config.Noelle.Pipeline.on_change ());
    }
  in
  let passes =
    List.map
      (fun (p : Noelle.Pipeline.pass) ->
        let where = name ^ ": " ^ p.Noelle.Pipeline.pname in
        { p with
          Noelle.Pipeline.papply =
            (fun m ->
              Version_oracle.check o ~where:(where ^ " (before)") m;
              let s = p.Noelle.Pipeline.papply m in
              Version_oracle.check o ~where m;
              s) })
      (Ntools.Passes.standard ~vec:true ~no_profile:true n)
  in
  Noelle.Pipeline.run ~config ?inject m passes

let test_standard_passes () =
  let committed = ref 0 and rolled_back = ref 0 in
  List.iteri
    (fun i (k : Bsuite.Kernels.kernel) ->
      List.iter
        (fun inject ->
          let o = Version_oracle.create () in
          let name = k.Bsuite.Kernels.kname in
          let r = checked_standard o ~name ?inject (Bsuite.Kernels.compile k) in
          committed := !committed + List.length (Noelle.Pipeline.committed r);
          rolled_back := !rolled_back + List.length (Noelle.Pipeline.rolled_back r);
          checki
            (Printf.sprintf "%s%s: versions redrawn over the same text" name
               (match inject with
               | Some s -> Printf.sprintf ", faults from seed %d" s
               | None -> ""))
            0 o.Version_oracle.redrawn)
        [ None; Some (7 * i) ])
    Bsuite.Kernels.all;
  checkb (Printf.sprintf "%d commits" !committed) (!committed > 100);
  checkb (Printf.sprintf "%d rollbacks" !rolled_back) (!rolled_back > 20)

let test_serve_edits () =
  let o = Version_oracle.create () in
  List.iter
    (fun name ->
      let m = Bsuite.Kernels.compile (Option.get (Bsuite.Kernels.find name)) in
      Version_oracle.check o ~where:(name ^ ": compiled") m;
      for e = 0 to 11 do
        let f = Serve.nth_fn m e in
        let before = Func.version f in
        ignore (Serve.apply_edit m ~efn:e ~eseed:(17 * e));
        Version_oracle.check o ~where:(Printf.sprintf "%s: edit %d" name e) m;
        checkb "an edit is a new version" (Func.version f <> before)
      done)
    [ "deadcalls"; "blackscholes"; "histogram" ]

(* [dead] on a module with nothing dead: no write, so no new version, and
   the candidate and the final check reuse the reference run *)
let test_noop_keeps_versions () =
  let m = Bsuite.Kernels.compile (Option.get (Bsuite.Kernels.find "blackscholes")) in
  let versions m = (Irmod.version m, List.map Func.version (Irmod.functions m)) in
  let before = versions m in
  let n = Noelle.create m in
  Ir.Trace.enable ();
  let r, reused =
    Fun.protect
      ~finally:(fun () ->
        Ir.Trace.disable ();
        Ir.Trace.reset ())
      (fun () ->
        let r =
          Noelle.Pipeline.run ~config:(Ntools.Passes.config ~fuel:20_000_000 n) m
            [ Ntools.Passes.dead n ]
        in
        (r, Ir.Trace.counter "pipeline.exec_reused"))
  in
  (match r.Noelle.Pipeline.entries with
  | [ { Noelle.Pipeline.eoutcome = Noelle.Pipeline.Committed s; _ } ] ->
    checkb ("dead removed nothing: " ^ s) (Obs.has_sub s "removed 0 functions")
  | _ -> Alcotest.fail "dead did not commit");
  checkb "every version unchanged" (versions m = before);
  checki "candidate and final check reused" 2 (Int64.to_int reused);
  checki "only the reference executed" 1 r.Noelle.Pipeline.executed

let suite =
  [
    tc "versions: every Faultgen plant" test_plants;
    tc "versions: standard passes over the corpus, rollbacks included" test_standard_passes;
    tc "versions: serve edits" test_serve_edits;
    tc "versions: a pass that changes nothing keeps every version" test_noop_keeps_versions;
  ]

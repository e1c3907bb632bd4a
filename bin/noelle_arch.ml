(** noelle-arch — describe the underlying architecture and its measured
    core-to-core latencies/bandwidths (Table 2; hwloc + micro-benchmarks
    in the paper, a deterministic model of the evaluation platform here). *)

open Cmdliner

let run input output cores numa =
  let arch = Noelle.Arch.measure ~physical_cores:cores ~numa_nodes:numa () in
  (match input with
  | Some path ->
    let m = Input_program.read ~tool:"noelle-arch" path in
    Noelle.Arch.to_meta arch m.Ir.Irmod.meta;
    let out = Input_program.write path output m in
    Printf.printf "noelle-arch: embedded into %s\n" out
  | None ->
    Printf.printf "cores=%d smt=%d numa=%d\n" arch.Noelle.Arch.physical_cores
      arch.Noelle.Arch.logical_per_physical arch.Noelle.Arch.numa_nodes;
    Printf.printf "max core-to-core latency: %d cycles\n" (Noelle.Arch.max_latency arch);
    Printf.printf "avg core-to-core latency: %.1f cycles\n" (Noelle.Arch.avg_latency arch));
  0

let cores = Arg.(value & opt int 12 & info [ "cores" ] ~docv:"N")
let numa = Arg.(value & opt int 1 & info [ "numa" ] ~docv:"N")

let cmd =
  Cmd.v
    (Cmd.info "noelle-arch" ~doc:"Measure and embed the architecture description")
    Term.(const run $ Input_program.file $ Input_program.output $ cores $ numa)

let () = exit (Cmd.eval' cmd)

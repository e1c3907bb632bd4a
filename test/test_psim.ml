(** Tests of the parallel runtime and simulator. *)

open Helpers
open Ir

(* hand-build a module that uses the runtime builtins directly *)
let parse = Parser.parse_module

let test_queues () =
  let m =
    parse
      {|
define void @producer(i64 %core, i64 %ncores, ptr %env) {
entry:
  %1 = load.i64 %env
  call.void @q_push(%1, 11)
  call.void @q_push(%1, 22)
  ret
}
define void @consumer(i64 %core, i64 %ncores, ptr %env) {
entry:
  %1 = load.i64 %env
  %2 = call.i64 @q_pop(%1)
  %3 = call.i64 @q_pop(%1)
  %4 = add %2, %3
  %5 = gep %env, 1
  store %4, %5
  ret
}
define i64 @main() {
entry:
  %1 = alloca 2
  %2 = call.i64 @q_new()
  store %2, %1
  call.void @task_submit(@consumer, 0, 2, %1)
  call.void @task_submit(@producer, 1, 2, %1)
  call.void @tasks_run()
  %8 = gep %1, 1
  %9 = load.i64 %8
  call.void @print(%9)
  ret 0
}
declare void @print(i64 %x)
declare i64 @q_new()
declare void @q_push(i64 %q, i64 %v)
declare i64 @q_pop(i64 %q)
declare void @task_submit(ptr %f, i64 %c, i64 %n, ptr %e)
declare void @tasks_run()
|}
  in
  Verify.verify_module m;
  (* consumer submitted FIRST: it must block until the producer runs *)
  let _, out, _, r = Psim.Runtime.run m in
  checks "fifo order through blocking" "33" (String.trim out);
  checki "one parallel section" 1 r.Psim.Runtime.sections

let test_signals () =
  let m =
    parse
      {|
define void @t(i64 %core, i64 %ncores, ptr %env) {
entry:
  %1 = load.i64 %env
  call.void @sig_wait(%1, %core)
  %3 = gep %env, 1
  %4 = load.i64 %3
  %5 = mul %4, 10
  %6 = add %5, %core
  store %6, %3
  %8 = add %core, 1
  call.void @sig_set(%1, %8)
  ret
}
define i64 @main() {
entry:
  %1 = alloca 2
  %2 = call.i64 @sig_new()
  store %2, %1
  %4 = gep %1, 1
  store 0, %4
  call.void @task_submit(@t, 2, 3, %1)
  call.void @task_submit(@t, 0, 3, %1)
  call.void @task_submit(@t, 1, 3, %1)
  call.void @tasks_run()
  %9 = load.i64 %4
  call.void @print(%9)
  ret 0
}
declare void @print(i64 %x)
declare i64 @sig_new()
declare void @sig_wait(i64 %s, i64 %v)
declare void @sig_set(i64 %s, i64 %v)
declare void @task_submit(ptr %f, i64 %c, i64 %n, ptr %e)
declare void @tasks_run()
|}
  in
  Verify.verify_module m;
  (* signals force execution order 0,1,2 regardless of submission order *)
  let _, out, _, _ = Psim.Runtime.run m in
  checks "signal-ordered" "12" (String.trim out)

let test_deadlock_detected () =
  let m =
    parse
      {|
define void @t(i64 %core, i64 %ncores, ptr %env) {
entry:
  %1 = load.i64 %env
  %2 = call.i64 @q_pop(%1)
  ret
}
define i64 @main() {
entry:
  %1 = alloca 1
  %2 = call.i64 @q_new()
  store %2, %1
  call.void @task_submit(@t, 0, 1, %1)
  call.void @tasks_run()
  ret 0
}
declare i64 @q_new()
declare i64 @q_pop(i64 %q)
declare void @task_submit(ptr %f, i64 %c, i64 %n, ptr %e)
declare void @tasks_run()
|}
  in
  match Psim.Runtime.run m with
  | exception Interp.Trap msg ->
    checkb "deadlock reported"
      (String.length msg >= 8 && String.sub msg 0 8 = "parallel")
  | _ -> Alcotest.fail "expected deadlock trap"

let test_clock_advances_with_latency () =
  (* popping a value stamps the consumer clock past the producer's *)
  let m =
    parse
      {|
define void @p(i64 %core, i64 %ncores, ptr %env) {
entry:
  %1 = load.i64 %env
  call.void @q_push(%1, 1)
  ret
}
define i64 @main() {
entry:
  %1 = alloca 1
  %2 = call.i64 @q_new()
  store %2, %1
  call.void @task_submit(@p, 0, 1, %1)
  call.void @tasks_run()
  ret 0
}
declare i64 @q_new()
declare void @q_push(i64 %q, i64 %v)
declare void @task_submit(ptr %f, i64 %c, i64 %n, ptr %e)
declare void @tasks_run()
|}
  in
  let _, _, cycles, _ = Psim.Runtime.run m in
  (* spawn + join costs dominate: at least 800 cycles *)
  checkb "spawn/join overhead accounted" (cycles >= 800L)

(** DSWP with stage weights [stages] (cycles/iteration each): throughput
    is bounded by the heaviest stage; each cross-stage value pays queue
    latency once (pipelined, so it adds to the fill time not the steady
    state). *)
let dswp_time (p : Psim.Models.params) ~iters ~stages =
  match stages with
  | [] -> p.Psim.Models.join
  | _ ->
    let bottleneck = List.fold_left Float.max 0.0 stages in
    let fill =
      float_of_int (List.length stages - 1) *. (p.latency +. bottleneck)
    in
    (iters *. bottleneck) +. fill
    +. (p.spawn *. float_of_int (List.length stages))
    +. p.join

(** Minimum iteration count for DOALL to be profitable (speedup > 1). *)
let doall_min_iters (p : Psim.Models.params) ~work =
  let overhead = (p.Psim.Models.spawn *. float_of_int p.cores) +. p.join in
  let c = float_of_int p.cores in
  (* iters * work > iters * work / c + overhead *)
  overhead /. (work -. (work /. c)) |> ceil


let test_models_sanity () =
  let p = Psim.Models.default_params in
  let seq = 120_000.0 in
  let doall = Psim.Models.doall_time p ~iters:10_000.0 ~work:12.0 in
  checkb "doall speedup near core count"
    (Psim.Models.speedup ~seq_time:seq ~par_time:doall > 7.0);
  let helix_bad = Psim.Models.helix_time p ~iters:10_000.0 ~work:12.0 ~seq:6.0 in
  checkb "helix chained by latency"
    (Psim.Models.speedup ~seq_time:seq ~par_time:helix_bad < 1.0);
  let helix_good = Psim.Models.helix_time p ~iters:10_000.0 ~work:1200.0 ~seq:6.0 in
  checkb "helix wins with heavy parallel work"
    (Psim.Models.speedup ~seq_time:(10_000.0 *. 1200.0) ~par_time:helix_good > 5.0);
  let dswp = dswp_time p ~iters:10_000.0 ~stages:[ 6.0; 6.0 ] in
  checkb "2-stage dswp caps at ~2x"
    (let s = Psim.Models.speedup ~seq_time:seq ~par_time:dswp in
     s > 1.5 && s < 2.2);
  checkb "doall min iters positive" (doall_min_iters p ~work:10.0 > 0.0)

let test_vec_masked_lane_waste () =
  let p = { Psim.Models.default_vec_params with Psim.Models.width = 8 } in
  let t d =
    Psim.Models.vec_time p ~iters:10_000.0 ~work:10.0 ~divergence:d
      ~strided_mem_ops:0 ~stride:1
  in
  (* masked-off lanes still occupy lane slots: more divergence, fewer
     effective lanes, strictly more time *)
  checkb "divergence shrinks effective width"
    (t 0.0 < t 0.25 && t 0.25 < t 0.5 && t 0.5 < t 0.875);
  (* a fully divergent body degenerates to one effective lane: no better
     than scalar (and setup/issue overhead makes it worse) *)
  checkb "full divergence degenerates to scalar"
    (t 1.0 >= 10_000.0 *. 10.0);
  (* gather/scatter penalty: strided accesses cost extra per group *)
  let unit =
    Psim.Models.vec_time p ~iters:10_000.0 ~work:10.0 ~divergence:0.0
      ~strided_mem_ops:3 ~stride:1
  and strided =
    Psim.Models.vec_time p ~iters:10_000.0 ~work:10.0 ~divergence:0.0
      ~strided_mem_ops:3 ~stride:4
  in
  checkb "non-unit stride pays gather penalty" (unit < strided)

let test_vec_epilogue_cost () =
  let p = { Psim.Models.default_vec_params with Psim.Models.width = 8 } in
  let t iters =
    Psim.Models.vec_time p ~iters ~work:10.0 ~divergence:0.0
      ~strided_mem_ops:0 ~stride:1
  in
  (* trip mod W leftover iterations run at full scalar cost: going from
     an exact multiple (80) to one extra iteration (81) costs a whole
     scalar body, not 1/8th of a group *)
  checkb "epilogue iterations cost scalar work" (t 81.0 -. t 80.0 >= 10.0);
  (* at trip mod W = 0 there is no epilogue term: 80 iterations cost
     exactly 10 groups + setup *)
  let expected_exact = (10.0 *. ((8.0 *. 10.0 /. 8.0) +. 2.0)) +. 16.0 in
  checkb "no epilogue at trip mod W = 0"
    (Float.abs (t 80.0 -. expected_exact) < 1e-9)

let test_vec_doall_crossover () =
  let dp = { Psim.Models.default_params with Psim.Models.cores = 12 } in
  let vp = { Psim.Models.default_vec_params with Psim.Models.width = 4 } in
  let vec iters =
    Psim.Models.vec_time vp ~iters ~work:20.0 ~divergence:0.0
      ~strided_mem_ops:0 ~stride:1
  and doall iters = Psim.Models.doall_time dp ~iters ~work:20.0 in
  (* small trips: DOALL's spawn/join overhead (400 cycles x 12 cores)
     swamps the parallel win while the vector setup is tiny *)
  checkb "vec wins at small trips" (vec 64.0 < doall 64.0);
  (* large trips: 12 cores beat 4 lanes once spawn cost is amortized *)
  checkb "doall wins at large trips" (doall 100_000.0 < vec 100_000.0);
  (* best_vec_width: wide lanes win long regular loops; the model never
     picks a width above the allowed maximum *)
  let best =
    Psim.Models.best_vec_width Psim.Models.default_vec_params ~max_width:16
      ~iters:(Some 10_000) ~work:20.0 ~divergence:0.0 ~strided_mem_ops:0
      ~stride:1
  in
  checki "wide lanes win regular loops" 16 best;
  let capped =
    Psim.Models.best_vec_width Psim.Models.default_vec_params ~max_width:8
      ~iters:(Some 10_000) ~work:20.0 ~divergence:0.0 ~strided_mem_ops:0
      ~stride:1
  in
  checki "width capped for 64-bit element bodies" 8 capped

let test_nested_sections () =
  (* a parallel section inside a function called from a task *)
  let src =
    {|
float out[1];
int main() {
  float acc = 0.0;
  for (int i = 0; i < 30000; i++) {
    float x = (float)(i % 64);
    acc += floor(x * 0.5 + x);
  }
  out[0] = acc;
  print((int)acc);
  return 0;
}
|}
  in
  let m = compile src in
  let expected = output m in
  let p, _ = Noelle.Profiler.run m in
  Noelle.Profiler.embed p m;
  let n = Noelle.create m in
  ignore (Ntools.Doall.run n m ~ncores:4 ());
  let out, _ = run_parallel m in
  checks "4-core run" expected out;
  (* and with 12 cores on a re-transformed module *)
  let m2 = compile src in
  let p2, _ = Noelle.Profiler.run m2 in
  Noelle.Profiler.embed p2 m2;
  let n2 = Noelle.create m2 in
  ignore (Ntools.Doall.run n2 m2 ~ncores:12 ());
  let out12, c12 = run_parallel m2 in
  checks "12-core same answer" expected out12;
  let _, c4 = run_parallel m in
  checkb "more cores, fewer cycles" (c12 <= c4)

let suite =
  [
    tc "queues block and deliver" test_queues;
    tc "signals order execution" test_signals;
    tc "deadlock detected" test_deadlock_detected;
    tc "clock accounting" test_clock_advances_with_latency;
    tc "analytic models" test_models_sanity;
    tc "vec model: masked-lane waste" test_vec_masked_lane_waste;
    tc "vec model: epilogue cost" test_vec_epilogue_cost;
    tc "vec model: crossover vs DOALL" test_vec_doall_crossover;
    tc "core-count scaling" test_nested_sections;
  ]

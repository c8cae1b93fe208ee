(* What one driver invocation carries: its arguments, the expected
   answers, the tallies and the metric values it will report. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  dsd : string;            (* the dsd binary serve-mixed runs *)
  store : Answer.store;
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
}

(* Set-up runs this many times per run; setup_s is the median. *)
let setups = 9

let set t name v = Hashtbl.replace t.values name v

let now = Dsd_util.Timer.now_s

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds of this process, all threads, user plus system.  Linux
   leaves out the time the hypervisor runs other guests on the
   CPU (steal time), which wall time counts. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_time f =
  let c0 = cpu () in
  let r = f () in
  (r, cpu () -. c0)

(* [answer t ~key ~digest ~valid] tallies one answer: it fails when the
   digest differs from the stored one or the recomputation disagrees. *)
let answer t ~key ~digest ~valid =
  t.attempted <- t.attempted + 1;
  let stored = Answer.check t.store ~seed:t.seed ~key digest in
  if not (stored && valid) then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: wrong answer for %s (seed %d): %s%s\n%!" key t.seed digest
      (if stored then " (recomputed density differs)" else " (differs from the stored answer)")
  end

let failure t what =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  Printf.eprintf "perfbench: %s\n%!" what

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Scratch files of a run (snapshots, the daemon's socket, spans) live
   here, inside the checkout. *)
let run_dir = ".bench_run"

let run_file name =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat run_dir name

let snapshot_path name = run_file (Printf.sprintf "%d-%s.snap" (Unix.getpid ()) name)

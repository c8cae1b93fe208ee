(* The benchmark driver.  perfbench/run.sh builds it and runs

     main.exe --workload cds|lds|serve-mixed --seed N --seconds S --trace 0|1

   from the repository root.  The last stdout line is the JSON result;
   the line before it records the run's context (cores detected, pool
   width, OCaml version, sample counts).  With --trace 1 the spans are
   written to .bench_run/spans-<workload>-<seed>.jsonl and their self
   time per layer is printed to stderr.  The exit code is 0 only when
   every answer was right.

     main.exe --record --workload W --seeds A-B

   recomputes the expected answers of seeds A..B into
   perfbench/expected/W.tsv, keeping the other seeds' lines. *)

open Perfbench

let workloads = [ "cds"; "lds"; "serve-mixed" ]
let expected_path w = Filename.concat "perfbench/expected" (w ^ ".tsv")

let usage () =
  prerr_endline
    "usage: main.exe --workload cds|lds|serve-mixed [--seed N] [--seconds S] [--trace 0|1]\n\
    \       main.exe --record --workload W --seeds A-B";
  exit 2

let record workload (lo, hi) =
  let path = expected_path workload in
  let keep =
    let old = Answer.load path in
    Hashtbl.fold
      (fun (s, k) d acc -> if s < lo || s > hi then (s, k, d) :: acc else acc)
      old.Answer.digests []
  in
  let fresh =
    List.concat_map
      (fun seed ->
        Printf.eprintf "recording %s seed %d\n%!" workload seed;
        if workload = "serve-mixed" then Serve_mixed.record ~seed
        else Oneshot.record ~seed workload)
      (List.init (hi - lo + 1) (fun i -> lo + i))
  in
  Answer.save path (List.sort compare (keep @ fresh))

let print_selfs spans =
  prerr_endline "self time per layer (s, spans):";
  List.iter
    (fun (name, t, c) -> Printf.eprintf "  %-28s %10.4f  x%d\n" name t c)
    (List.sort (fun (_, a, _) (_, b, _) -> compare b a) (Spans.self_times spans))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 20. and trace = ref 0 in
  let dsd = ref "" and record_mode = ref false and seeds = ref (0, 0) in
  let seeds_arg s =
    match List.map int_of_string_opt (String.split_on_char '-' s) with
    | [ Some a; Some b ] -> seeds := (a, b)
    | _ -> usage ()
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--dsd", Arg.Set_string dsd, "PATH of the dsd binary");
      ("--record", Arg.Set record_mode, "");
      ("--seeds", Arg.String seeds_arg, "A-B") ]
    (fun _ -> usage ())
    "perfbench driver";
  if not (List.mem !workload workloads) || !seconds <= 0. || !trace < 0 || !trace > 1
  then usage ();
  if !record_mode then record !workload !seeds
  else begin
    let ctx : Ctx.t =
      { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
        dsd = !dsd; store = Answer.load (expected_path !workload);
        values = Hashtbl.create 64; attempted = 0; failed = 0 }
    in
    let stored = Answer.has_seed ctx.store ctx.seed in
    if not stored then
      Printf.eprintf
        "perfbench: no stored answers for seed %d; computing them in-process at one domain\n%!"
        ctx.seed;
    let t0 = Ctx.now () in
    let spans, context =
      if ctx.workload = "serve-mixed" then Serve_mixed.run ctx else Oneshot.run ctx
    in
    if ctx.trace then begin
      let path = Ctx.run_file (Printf.sprintf "spans-%s-%d.jsonl" ctx.workload ctx.seed) in
      Spans.write path ~t0 spans;
      Printf.eprintf "spans written to %s\n" path;
      print_selfs spans
    end;
    Printf.printf
      "{\"context\": {\"workload\": %S, \"seed\": %d, \"trace\": %b, \"cores_detected\": %d, \
       \"ocaml\": %S, \"stored_answers\": %b%s}}\n"
      ctx.workload ctx.seed ctx.trace
      (Domain.recommended_domain_count ())
      Sys.ocaml_version
      stored
      (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ", %S: %s" k v) context));
    let correct = ctx.failed = 0 && ctx.attempted > 0 in
    print_endline
      (Metrics.result_line ~trace:ctx.trace ~correct ~attempted:ctx.attempted
         ~failed:ctx.failed ctx.values);
    exit (if correct then 0 else 1)
  end

(* The calibration kernel: fixed work in the benchmark's own code, timed in
   CPU seconds beside the program's work, so that the timings can be
   stated at one speed of the machine, the calibration speed.

   On a shared host the CPU's speed moves by tens of percent over
   minutes, with the load the other guests put on its caches, memory and
   cores; CPU time moves with it, and so does every wall-clock or CPU
   timing of the program.  The kernel walks a fixed random graph in
   compressed sparse rows and reads the first arc of every arc's head:
   random reads over 16 MB, the same kind of cache-missing work the
   program's graph code does.  It allocates nothing, calls none of the
   program's code and does not depend on the seed, so a change to the
   program does not change its work. *)

let n = 1 lsl 18
let arcs_per_vertex = 8

(* Built once per process; a fixed seed, independent of the workload's. *)
let graph =
  lazy
    (let r = Dsd_util.Prng.create 20_240_917 in
     let offsets = Array.init (n + 1) (fun v -> v * arcs_per_vertex) in
     let heads = Array.init (n * arcs_per_vertex) (fun _ -> Dsd_util.Prng.int r n) in
     (offsets, heads))

let walk (offsets, heads) =
  let acc = ref 0 in
  for v = 0 to n - 1 do
    for i = offsets.(v) to offsets.(v + 1) - 1 do
      let u = heads.(i) in
      acc := !acc + (heads.(offsets.(u)) lxor v)
    done
  done;
  !acc

let rounds = 12

(* The CPU seconds of one run of the kernel. *)
let time () =
  let g = Lazy.force graph in
  snd (Ctx.cpu_time (fun () -> for _ = 1 to rounds do ignore (Sys.opaque_identity (walk g)) done))

(* The kernel's CPU time that defines the calibration speed: a timing t
   measured beside a kernel time k is reported as t * nominal / k.  It is
   about the kernel's CPU time on a 2-vCPU cloud VM. *)
let nominal = 0.25

let scale ~kernel t = t *. nominal /. kernel

(* [around f] runs [f] between two runs of the kernel; [f]'s result and
   the mean kernel time. *)
let around f =
  let before = time () in
  let r = f () in
  (r, (before +. time ()) /. 2.)

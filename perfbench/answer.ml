(* Answer digests, the stored expected answers, and the checks every
   answer goes through.

   A digest pins an answer bit for bit: the density's IEEE-754 bits
   plus a hash of the sorted vertex set.  Answers that are lists
   (top-k regions, hierarchy levels) digest to their length, their
   first element and a hash over all elements.  Expected digests live
   in perfbench/expected/<workload>.tsv, one "seed<TAB>key<TAB>digest"
   line each, written by the driver's record mode. *)

module D = Dsd_core.Density

(* FNV-1a over the ints, in OCaml's 63-bit native int (offset basis
   truncated to fit). *)
let hash_ints ?(init = 0x0bf29ce484222325) (xs : int array) =
  Array.fold_left (fun h x -> (h lxor x) * 0x100000001b3) init xs
  land max_int

let subgraph density vertices =
  let sorted = Array.copy vertices in
  Array.sort compare sorted;
  Printf.sprintf "%016Lx:%015x"
    (Int64.bits_of_float density)
    (hash_ints sorted)

let list (items : (float * int array) list) =
  match items with
  | [] -> "0"
  | (d0, v0) :: _ ->
    let h =
      List.fold_left
        (fun h (d, vs) ->
          hash_ints ~init:(hash_ints ~init:h [| Int64.to_int (Int64.bits_of_float d) |]) vs)
        0 items
    in
    Printf.sprintf "%d:%s:%015x" (List.length items) (subgraph d0 v0) h

let density_only d = Printf.sprintf "%016Lx" (Int64.bits_of_float d)

(* ---- the expected-answer store ---- *)

type store = {
  digests : (int * string, string) Hashtbl.t;
  seeds : (int, unit) Hashtbl.t;
}

let load path =
  let t = { digests = Hashtbl.create 1024; seeds = Hashtbl.create 64 } in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         match String.split_on_char '\t' (input_line ic) with
         | [ seed; key; digest ] ->
           let seed = int_of_string seed in
           Hashtbl.replace t.digests (seed, key) digest;
           Hashtbl.replace t.seeds seed ()
         | _ -> failwith ("malformed line in " ^ path)
       done
     with End_of_file -> ());
    close_in ic
  end;
  t

let has_seed t seed = Hashtbl.mem t.seeds seed

(* An expected answer computed in-process, for a seed with none stored. *)
let add t ~seed ~key digest =
  Hashtbl.replace t.digests (seed, key) digest;
  Hashtbl.replace t.seeds seed ()

let save path (rows : (int * string * string) list) =
  let oc = open_out path in
  List.iter (fun (s, k, d) -> Printf.fprintf oc "%d\t%s\t%s\n" s k d) rows;
  close_out oc

(* [check store ~seed ~key digest] is true when the stored digest
   matches; with no stored answers for [seed] at all there is nothing
   to compare against and only the recomputations below apply. *)
let check t ~seed ~key digest =
  (not (has_seed t seed))
  || Hashtbl.find_opt t.digests (seed, key) = Some digest

(* ---- recomputation with Dsd_core.Density ---- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* rho(S) recomputed from the graph must equal the reported density. *)
let rho_ok g psi vertices density =
  same_float (D.of_vertices g psi vertices).D.density density

let mu g psi vs =
  int_of_float (Float.round ((D.of_vertices g psi vs).D.density *. float_of_int (Array.length vs)))

(* Hierarchy levels: each marginal (mu(B_i) - mu(B_i-1)) / |X_i| is
   recomputed from the prefix sets, the levels must be disjoint, and a
   [complete] chain must cover the graph. *)
let levels_ok ~complete g psi (levels : (float * int array) list) =
  let n = Dsd_graph.Graph.n g in
  let seen = Array.make n false in
  let ok = ref true and prefix = ref [||] and mu_prev = ref 0 in
  List.iter
    (fun (marginal, xs) ->
      Array.iter
        (fun v -> if v < 0 || v >= n || seen.(v) then ok := false else seen.(v) <- true)
        xs;
      prefix := Array.append !prefix xs;
      let m = mu g psi !prefix in
      let expect =
        float_of_int (m - !mu_prev) /. float_of_int (Array.length xs)
      in
      if not (same_float expect marginal) then ok := false;
      mu_prev := m)
    levels;
  !ok && ((not complete) || Array.for_all Fun.id seen)

(* Top-k regions: pairwise disjoint, densities non-increasing, each
   density rho(region). *)
let regions_ok g psi (regions : (float * int array) list) =
  let seen = Hashtbl.create 64 in
  let prev = ref infinity in
  List.for_all
    (fun (d, vs) ->
      let fresh = Array.for_all (fun v -> not (Hashtbl.mem seen v)) vs in
      Array.iter (fun v -> Hashtbl.replace seen v ()) vs;
      let ok = fresh && d <= !prev && rho_ok g psi vs d in
      prev := d;
      ok)
    regions

(* A query answer contains every query vertex and has density rho(S). *)
let query_ok g psi ~query vertices density =
  Array.for_all (fun q -> Array.mem q vertices) query
  && rho_ok g psi vertices density

type arena = { mutable prepared : Flow_build.prepared option }

let arena () = { prepared = None }
let invalidate a = a.prepared <- None
let is_prepared a = Option.is_some a.prepared

let probe ?warm a ~prepare alpha =
  let network =
    match a.prepared with
    | Some p -> Flow_build.retarget ?warm p ~alpha
    | None ->
      let p = prepare alpha in
      a.prepared <- Some p;
      p.Flow_build.network
  in
  Flow_build.solve network

let node_count a =
  match a.prepared with
  | Some p -> p.Flow_build.network.Flow_build.node_count
  | None -> 0

type step = Raise of float | Lower

let bisect ~gap ~l ~u decide =
  let l = ref l and u = ref u in
  while !u -. !l >= gap () do
    let alpha = (!l +. !u) /. 2. in
    match decide alpha with
    | Raise l' -> l := l'
    | Lower -> u := alpha
  done;
  (!l, !u)

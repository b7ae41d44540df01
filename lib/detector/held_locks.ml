(* Per-thread held-lock sets (see held_locks.mli). *)

type t = {
  mutable held : Lockid.t list array;  (* sorted, set semantics *)
  mutable stamp : int array;
  mutable barrier_gen : int;
}

let create () = { held = Array.make 8 []; stamp = Array.make 8 0; barrier_gen = 0 }

let ensure_tid l t =
  let n = Array.length l.held in
  if t >= n then begin
    let n' = max (t + 1) (2 * n) in
    let held = Array.make n' [] and stamp = Array.make n' 0 in
    Array.blit l.held 0 held 0 n;
    Array.blit l.stamp 0 stamp 0 n;
    l.held <- held;
    l.stamp <- stamp
  end

let rec insert_sorted (m : Lockid.t) = function
  | [] -> [ m ]
  | x :: rest when x < m -> x :: insert_sorted m rest
  | x :: _ as s when x > m -> m :: s
  | s -> s (* already held *)

let update l t held =
  ensure_tid l t;
  l.held.(t) <- held l.held.(t);
  l.stamp.(t) <- l.stamp.(t) + 1

let on_event l e =
  match e with
  | Event.Acquire { t; m } -> update l t (insert_sorted m)
  | Event.Release { t; m } -> update l t (List.filter (fun x -> x <> m))
  | Event.Barrier_release _ -> l.barrier_gen <- l.barrier_gen + 1
  | _ -> ()

let held l t =
  if t < Array.length l.held then (l.stamp.(t), l.held.(t)) else (0, [])

let barrier_generation l = l.barrier_gen

type t = Event.t array

let of_list = Array.of_list
let of_array = Array.copy
let to_list = Array.to_list
let length = Array.length
let get tr i = tr.(i)
let iter = Array.iter
let iteri = Array.iteri
let fold f init tr = Array.fold_left f init tr

let iter_range ~lo ~hi f tr =
  let hi = min hi (Array.length tr) in
  for i = max 0 lo to hi - 1 do
    f i (Array.unsafe_get tr i)
  done

(* Segment boundaries for an n-way split: [segment_bounds ~count tr]
   yields [count] half-open [(lo, hi)] ranges covering [0, length),
   in order, sizes differing by at most one.  Degenerate inputs
   (count > length) simply produce empty tail segments. *)
let segment_bounds ~count tr =
  let len = Array.length tr in
  let count = max 1 count in
  Array.init count (fun k ->
      let lo = k * len / count and hi = (k + 1) * len / count in
      (lo, hi))

let max_tid tr =
  Array.fold_left
    (fun acc e ->
      match e with
      | Event.Barrier_release { threads } ->
        List.fold_left max acc threads
      | Event.Fork { t; u } | Event.Join { t; u } -> max acc (max t u)
      | e -> (
        match Event.tid e with Some t -> max acc t | None -> acc))
    (-1) tr

let thread_count tr = max_tid tr + 1

let vars tr =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  Array.iter
    (fun e ->
      match e with
      | Event.Read { x; _ } | Event.Write { x; _ } ->
        if not (Hashtbl.mem seen x) then begin
          Hashtbl.add seen x ();
          acc := x :: !acc
        end
      | _ -> ())
    tr;
  List.rev !acc

let counts tr =
  let reads = ref 0 and writes = ref 0 and other = ref 0 in
  Array.iter
    (fun e ->
      match e with
      | Event.Read _ -> incr reads
      | Event.Write _ -> incr writes
      | _ -> incr other)
    tr;
  (!reads, !writes, !other)

let append a b = Array.append a b

let pp ppf tr =
  Array.iter (fun e -> Format.fprintf ppf "%a@." Event.pp e) tr

let to_string tr = Format.asprintf "%a" pp tr

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go n acc = function
    | [] -> Ok (of_list (List.rev acc))
    | line :: rest ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go (n + 1) acc rest
      else (
        match Event.of_string line with
        | Ok e -> go (n + 1) (e :: acc) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" n msg))
  in
  go 1 [] lines

module Builder = struct
  type t = { mutable events : Event.t array; mutable len : int }

  let create ?(initial_capacity = 1024) () =
    { events = Array.make (max initial_capacity 1) (Event.Txn_begin { t = 0 });
      len = 0 }

  let add b e =
    let cap = Array.length b.events in
    if b.len = cap then begin
      let fresh = Array.make (2 * cap) e in
      Array.blit b.events 0 fresh 0 cap;
      b.events <- fresh
    end;
    b.events.(b.len) <- e;
    b.len <- b.len + 1

  let length b = b.len
  let build b = Array.sub b.events 0 b.len
end

(* The benchmark's own span recorder.  It is independent of the program's
   observability layer so that changes there cannot change how the
   benchmark measures.  Spans and counts stay in memory and are written
   out once, when the traced run ends; self times are computed from the
   written spans by run.py. *)

external now_ns : unit -> int = "pb_monotonic_ns" [@@noalloc]

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request the span belongs to *)
  name : string;
  start_ns : int;
  stop_ns : int;
}

type t = {
  mutable next_id : int;
  mutable open_ids : int list;  (** innermost first *)
  mutable spans : span list;
  mutable counts : (int * string * float) list;
  mutable requests : (int * string) list;  (** request id, file *)
}

let create () =
  { next_id = 0; open_ids = []; spans = []; counts = []; requests = [] }

let request t ~req ~file = t.requests <- (req, file) :: t.requests

let with_span t ~req ~name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
  t.open_ids <- id :: t.open_ids;
  let start_ns = now_ns () in
  let close () =
    let stop_ns = now_ns () in
    t.open_ids <- List.tl t.open_ids;
    t.spans <- { id; parent; req; name; start_ns; stop_ns } :: t.spans
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let count t ~req name value = t.counts <- (req, name, value) :: t.counts

let write t path =
  let oc = open_out path in
  List.iter
    (fun (req, file) -> Printf.fprintf oc "request\t%d\t%s\n" req file)
    (List.rev t.requests);
  List.iter
    (fun s ->
      Printf.fprintf oc "span\t%d\t%d\t%d\t%s\t%d\t%d\n" s.id s.parent s.req
        s.name s.start_ns s.stop_ns)
    (List.rev t.spans);
  List.iter
    (fun (req, name, v) -> Printf.fprintf oc "count\t%d\t%s\t%.17g\n" req name v)
    (List.rev t.counts);
  close_out oc

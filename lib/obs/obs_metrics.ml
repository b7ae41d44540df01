type counter = { mutable c : int }
type gauge = { mutable g : float }

(* 65 power-of-two buckets covering 2^-32 .. 2^32; index i holds
   samples with binary exponent i - 32 (value in [2^(e-1), 2^e)). *)
let bucket_count = 65
let exp_offset = 32

type histogram = {
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable max_sample : float;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16 }

let find_or_add tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.replace tbl name v;
    v

let counter t name = find_or_add t.counters name (fun () -> { c = 0 })

let gauge t name = find_or_add t.gauges name (fun () -> { g = 0. })

let histogram t name =
  find_or_add t.histograms name (fun () ->
      { buckets = Array.make bucket_count 0;
        count = 0;
        sum = 0.;
        max_sample = neg_infinity })

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let counter_value c = c.c

let set g v = g.g <- v

let gauge_value g = g.g

let bucket_of v =
  if not (Float.is_finite v) || v <= 0. then 0
  else
    let _, e = Float.frexp v in
    if e < -exp_offset then 0
    else if e > bucket_count - 1 - exp_offset then bucket_count - 1
    else e + exp_offset

let observe h v =
  let i = bucket_of v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.count <- h.count + 1;
  (* non-finite samples clamp in the bucket map above; keep them out
     of the running sum/max so one NaN or infinity can't poison the
     aggregates for the whole run *)
  if Float.is_finite v then begin
    h.sum <- h.sum +. v;
    if v > h.max_sample then h.max_sample <- v
  end

(* ------------------------------------------------------------------ *)

type histogram_snapshot = {
  count : int;
  sum : float;
  max_sample : float;
  buckets : (int * int) list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}

let sorted_alist tbl value =
  Hashtbl.fold (fun name v acc -> (name, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histogram_snapshot (h : histogram) =
  let buckets = ref [] in
  for i = bucket_count - 1 downto 0 do
    if h.buckets.(i) > 0 then
      buckets := (i - exp_offset, h.buckets.(i)) :: !buckets
  done;
  { count = h.count;
    sum = h.sum;
    max_sample = (if h.count = 0 then 0. else h.max_sample);
    buckets = !buckets }

let snapshot (t : t) =
  { counters = sorted_alist t.counters counter_value;
    gauges = sorted_alist t.gauges gauge_value;
    histograms = sorted_alist t.histograms histogram_snapshot }

let snapshot_to_json (s : snapshot) =
  Obs_json.obj
    [ ("counters",
       Obs_json.obj
         (List.map (fun (n, v) -> (n, Obs_json.int v)) s.counters));
      ("gauges",
       Obs_json.obj
         (List.map (fun (n, v) -> (n, Obs_json.float v)) s.gauges));
      ("histograms",
       Obs_json.obj
         (List.map
            (fun (n, (h : histogram_snapshot)) ->
              ( n,
                Obs_json.obj
                  [ ("count", Obs_json.int h.count);
                    ("sum", Obs_json.float h.sum);
                    ("max", Obs_json.float h.max_sample);
                    ("buckets",
                     Obs_json.arr
                       (List.map
                          (fun (e, k) ->
                            Obs_json.obj
                              [ ("le_exp", Obs_json.int e);
                                ("n", Obs_json.int k) ])
                          h.buckets)) ] ))
            s.histograms)) ]

(* Shadow-state profiler (see obs_prof.mli for the contract).

   Attribution follows the RoadRunner idiom the shadow memory already
   reproduces: the cell lives *inside* the detector's per-variable
   shadow state, so the hot path never probes a table — it increments
   through a pointer it already holds.  The cell table here exists
   for the cold sides only: census, merge, ranking, export. *)

let schema_version = "ftrace.prof/1"

type rule_class = Same_epoch | Epoch | Vc

let class_to_string = function
  | Same_epoch -> "same_epoch"
  | Epoch -> "epoch"
  | Vc -> "vc"

type cell = {
  c_key : int;
  c_name : string;
  c_rules : int array;
  mutable c_inflations : int;
  mutable c_deflations : int;
  mutable c_inflated_now : bool;
  mutable c_rvc_words : int;
  mutable c_ns : float;      (* sampled nanoseconds attributed here *)
  mutable c_samples : int;
}

let max_rules = 16

let no_cell =
  { c_key = -1;
    c_name = "";
    c_rules = Array.make max_rules 0;
    c_inflations = 0;
    c_deflations = 0;
    c_inflated_now = false;
    c_rvc_words = 0;
    c_ns = 0.;
    c_samples = 0 }

let buckets_n = 40  (* log2-ns buckets: 2^0 .. 2^39 ns *)

type enabled = {
  stride : int;
  series_cap : int;
  start : float;  (* monotonic epoch shared by all views of a run *)
  mutable rule_names : string array;
  mutable rule_classes : rule_class array;
  cells : (int, cell) Hashtbl.t;
  mutable sync_vc_ops : int;
  mutable tot_inflations : int;
  mutable tot_deflations : int;
  (* timing sampler: the cell and class [attribute] recorded *)
  mutable last_cell : cell;
  mutable last_vc : bool;
  buckets_fast : int array;
  buckets_vc : int array;
  mutable t_samples : int;
  (* census *)
  mutable census_cb : (unit -> unit) option;
  mutable census_taken : bool;
  mutable cs_vars : int;
  mutable cs_inflated : int;
  mutable cs_words : int;
  mutable cs_rvc_words : int;
  (* bounded cumulative series, newest first: (at, o1, vc) *)
  mutable series_rev : (float * int * int) list;
  mutable series_n : int;
  mutable series_stride : int;  (* samples per point; doubles on thin *)
  mutable series_skip : int;
}

type t = enabled option

let disabled : t = None
let is_enabled = Option.is_some

let make ~stride ~series_cap ~start =
  { stride;
    series_cap;
    start;
    rule_names = [||];
    rule_classes = [||];
    cells = Hashtbl.create 256;
    sync_vc_ops = 0;
    tot_inflations = 0;
    tot_deflations = 0;
    last_cell = no_cell;
    last_vc = false;
    buckets_fast = Array.make buckets_n 0;
    buckets_vc = Array.make buckets_n 0;
    t_samples = 0;
    census_cb = None;
    census_taken = false;
    cs_vars = 0;
    cs_inflated = 0;
    cs_words = 0;
    cs_rvc_words = 0;
    series_rev = [];
    series_n = 0;
    series_stride = 1;
    series_skip = 0 }

let create ?(sample_stride = 512) ?(series_capacity = 512) () : t =
  Some
    (make ~stride:(max 1 sample_stride) ~series_cap:(max 16 series_capacity)
       ~start:(Obs_clock.now ()))

(* ------------------------------------------------------------------ *)
(* Detector-side hooks                                                *)

let register_rules (t : t) rules =
  match t with
  | None -> ()
  | Some e ->
    e.rule_names <- Array.map fst rules;
    e.rule_classes <- Array.map snd rules

let cell (t : t) ~key ~name =
  match t with
  | None -> no_cell
  | Some e -> (
    match Hashtbl.find_opt e.cells key with
    | Some c -> c
    | None ->
      let c =
        { no_cell with
          c_key = key;
          c_name = name;
          c_rules =
            Array.make (max max_rules (Array.length e.rule_names)) 0 }
      in
      Hashtbl.replace e.cells key c;
      c)

(* The fully-inlined protocol: the detector's hot path keeps {e only}
   the per-cell increment — through the raw array {!cell_rules} hands
   out, no call, no option match.  Every total is a sum of the cells,
   taken at the cold consumers.  {!attribute} records the cell of the
   one access per stride that is being timed. *)

let cell_rules c = c.c_rules

let attribute (t : t) c ~vc =
  match t with
  | None -> ()
  | Some e ->
    e.last_cell <- c;
    e.last_vc <- vc

let inflate (t : t) c =
  match t with
  | None -> ()
  | Some e ->
    c.c_inflations <- c.c_inflations + 1;
    e.tot_inflations <- e.tot_inflations + 1

let deflate (t : t) c =
  match t with
  | None -> ()
  | Some e ->
    c.c_deflations <- c.c_deflations + 1;
    e.tot_deflations <- e.tot_deflations + 1

let sync_vc_op (t : t) =
  match t with
  | None -> ()
  | Some e -> e.sync_vc_ops <- e.sync_vc_ops + 1

(* ------------------------------------------------------------------ *)
(* Sampled timing + counter-track series                              *)

let sample_stride (t : t) = match t with None -> 0 | Some e -> e.stride

let log2_bucket ns =
  let n = int_of_float ns in
  if n <= 1 then 0
  else begin
    let rec lg acc n = if n <= 1 then acc else lg (acc + 1) (n lsr 1) in
    min (buckets_n - 1) (lg 0 n)
  end

(* Thin the series until it fits its capacity: each pass keeps every
   other point plus the first and the last, and doubles the stride.
   Cold: runs O(log total-samples) times per view, and after a merge. *)
let rec thin_series e =
  if e.series_n > e.series_cap then begin
    let last = e.series_n - 1 in
    let kept =
      List.rev e.series_rev
      |> List.filteri (fun i _ -> i mod 2 = 0 || i = last)
      |> List.rev
    in
    e.series_rev <- kept;
    e.series_n <- List.length kept;
    e.series_stride <- e.series_stride * 2;
    thin_series e
  end

let push_point e ~o1 ~vc =
  e.series_skip <- e.series_skip - 1;
  if e.series_skip <= 0 then begin
    e.series_skip <- e.series_stride;
    e.series_rev <- (Obs_clock.now () -. e.start, o1, vc) :: e.series_rev;
    e.series_n <- e.series_n + 1;
    thin_series e
  end

let sample (t : t) ~ns ~o1 ~vc =
  match t with
  | None -> ()
  | Some e ->
    let c = e.last_cell in
    c.c_ns <- c.c_ns +. ns;
    c.c_samples <- c.c_samples + 1;
    let buckets = if e.last_vc then e.buckets_vc else e.buckets_fast in
    let b = log2_bucket ns in
    buckets.(b) <- buckets.(b) + 1;
    e.t_samples <- e.t_samples + 1;
    push_point e ~o1 ~vc

(* ------------------------------------------------------------------ *)
(* Census                                                             *)

let set_census (t : t) f =
  match t with None -> () | Some e -> e.census_cb <- Some f

let census_var (t : t) c ~inflated ~words ~rvc_words =
  match t with
  | None -> ()
  | Some e ->
    e.cs_vars <- e.cs_vars + 1;
    if inflated then e.cs_inflated <- e.cs_inflated + 1;
    e.cs_words <- e.cs_words + words;
    e.cs_rvc_words <- e.cs_rvc_words + rvc_words;
    c.c_inflated_now <- inflated;
    c.c_rvc_words <- rvc_words

let take_census (t : t) =
  match t with
  | None -> ()
  | Some e -> (
    match e.census_cb with
    | None -> ()
    | Some f ->
      e.cs_vars <- 0;
      e.cs_inflated <- 0;
      e.cs_words <- 0;
      e.cs_rvc_words <- 0;
      f ();
      e.census_taken <- true)

(* ------------------------------------------------------------------ *)
(* Sharding                                                           *)

let shard_view (t : t) : t =
  match t with
  | None -> None
  | Some e ->
    Some (make ~stride:e.stride ~series_cap:e.series_cap ~start:e.start)

let merge_cell ~into:d c =
  let n = min (Array.length d.c_rules) (Array.length c.c_rules) in
  for i = 0 to n - 1 do
    d.c_rules.(i) <- d.c_rules.(i) + c.c_rules.(i)
  done;
  d.c_inflations <- d.c_inflations + c.c_inflations;
  d.c_deflations <- d.c_deflations + c.c_deflations;
  d.c_inflated_now <- d.c_inflated_now || c.c_inflated_now;
  d.c_rvc_words <- d.c_rvc_words + c.c_rvc_words;
  d.c_ns <- d.c_ns +. c.c_ns;
  d.c_samples <- d.c_samples + c.c_samples

(* Sum two chronological cumulative series as step functions: each
   output point carries its own side's value plus the other side's
   latest (0 before that side's first point); ties keep [a] first. *)
let sum_series a b =
  let rec go acc (ao, av) (bo, bv) a b =
    match (a, b) with
    | [], [] -> List.rev acc
    | (at, o, v) :: a', (bt, _, _) :: _ when at <= bt ->
      go ((at, o + bo, v + bv) :: acc) (o, v) (bo, bv) a' b
    | (at, o, v) :: a', [] ->
      go ((at, o + bo, v + bv) :: acc) (o, v) (bo, bv) a' b
    | _, (bt, o, v) :: b' ->
      go ((bt, ao + o, av + v) :: acc) (ao, av) (o, v) a b'
  in
  go [] (0, 0) (0, 0) a b

let merge ~(into : t) (src : t) =
  match (into, src) with
  | None, _ | _, None -> ()
  | Some d, Some s ->
    Hashtbl.iter
      (fun key c ->
        match Hashtbl.find_opt d.cells key with
        | Some dc -> merge_cell ~into:dc c
        | None -> Hashtbl.replace d.cells key c)
      s.cells;
    if Array.length d.rule_names = 0 then begin
      d.rule_names <- s.rule_names;
      d.rule_classes <- s.rule_classes
    end;
    d.sync_vc_ops <- d.sync_vc_ops + s.sync_vc_ops;
    d.tot_inflations <- d.tot_inflations + s.tot_inflations;
    d.tot_deflations <- d.tot_deflations + s.tot_deflations;
    Array.iteri
      (fun i n -> d.buckets_fast.(i) <- d.buckets_fast.(i) + n)
      s.buckets_fast;
    Array.iteri
      (fun i n -> d.buckets_vc.(i) <- d.buckets_vc.(i) + n)
      s.buckets_vc;
    d.t_samples <- d.t_samples + s.t_samples;
    d.census_taken <- d.census_taken || s.census_taken;
    d.cs_vars <- d.cs_vars + s.cs_vars;
    d.cs_inflated <- d.cs_inflated + s.cs_inflated;
    d.cs_words <- d.cs_words + s.cs_words;
    d.cs_rvc_words <- d.cs_rvc_words + s.cs_rvc_words;
    d.series_rev <-
      List.rev (sum_series (List.rev d.series_rev) (List.rev s.series_rev));
    d.series_n <- d.series_n + s.series_n;
    thin_series d

(* ------------------------------------------------------------------ *)
(* Consumers                                                          *)

let rules_totals e =
  let n = Array.length e.rule_names in
  let totals = Array.make n 0 in
  Hashtbl.iter
    (fun _ c ->
      for i = 0 to min n (Array.length c.c_rules) - 1 do
        totals.(i) <- totals.(i) + c.c_rules.(i)
      done)
    e.cells;
  totals

(* The sum of a per-rule counter array over the rules of one class. *)
let by_class e rules cls =
  let acc = ref 0 in
  for i = 0 to min (Array.length e.rule_classes) (Array.length rules) - 1 do
    if e.rule_classes.(i) = cls then acc := !acc + rules.(i)
  done;
  !acc

(* Run-wide (same-epoch, epoch, vc) totals, summed from the cells. *)
let class_totals (t : t) =
  match t with
  | None -> (0, 0, 0)
  | Some e ->
    let totals = rules_totals e in
    (by_class e totals Same_epoch, by_class e totals Epoch,
     by_class e totals Vc)

let accesses t =
  let same, epoch, vc = class_totals t in
  same + epoch + vc

let vc_walks t =
  let _, _, vc = class_totals t in
  vc

let inflated_now (t : t) = match t with None -> 0 | Some e -> e.cs_inflated
let frac num den = if den <= 0 then 0. else float_of_int num /. float_of_int den

let fast_frac t =
  let same, epoch, vc = class_totals t in
  frac (same + epoch) (same + epoch + vc)

let same_epoch_frac t =
  let same, epoch, vc = class_totals t in
  frac same (same + epoch + vc)

(* The one ranking of the exact cells: ops descending, key ascending. *)
let ranked_cells e =
  Hashtbl.fold
    (fun _ c acc ->
      let n = Array.fold_left ( + ) 0 c.c_rules in
      if n > 0 then (c, n) :: acc else acc)
    e.cells []
  |> List.sort (fun (a, na) (b, nb) ->
         match Int.compare nb na with
         | 0 -> Int.compare a.c_key b.c_key
         | c -> c)

let top_cells ~k e = List.filteri (fun i _ -> i < k) (ranked_cells e)

let hot_alist ?(k = 5) (t : t) =
  match t with
  | None -> []
  | Some e -> List.map (fun (c, n) -> (c.c_name, n)) (top_cells ~k e)

let series (t : t) = match t with None -> [] | Some e -> List.rev e.series_rev

(* ------------------------------------------------------------------ *)
(* ftrace.prof/1                                                      *)

let ever_inflated e =
  Hashtbl.fold
    (fun _ c acc -> if c.c_inflations > 0 then acc + 1 else acc)
    e.cells 0

let word_bytes = Sys.word_size / 8

let buckets_json buckets =
  Obs_json.arr
    (Array.to_list buckets
    |> List.mapi (fun i n -> (i, n))
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (i, n) ->
           Obs_json.arr [ Obs_json.int i; Obs_json.int n ]))

let cell_json e c =
  let same = by_class e c.c_rules Same_epoch
  and epoch = by_class e c.c_rules Epoch
  and vc = by_class e c.c_rules Vc in
  let ops = same + epoch + vc in
  Obs_json.obj
    [ ("var", Obs_json.str c.c_name);
      ("key", Obs_json.int c.c_key);
      ("ops", Obs_json.int ops);
      ("same_epoch", Obs_json.int same);
      ("epoch", Obs_json.int epoch);
      ("vc", Obs_json.int vc);
      ("fast_frac", Obs_json.float (frac (same + epoch) ops));
      ("inflations", Obs_json.int c.c_inflations);
      ("deflations", Obs_json.int c.c_deflations);
      ("inflated", Obs_json.bool c.c_inflated_now);
      ("rvc_words", Obs_json.int c.c_rvc_words);
      ("samples", Obs_json.int c.c_samples);
      ("ns_per_op",
       if c.c_samples = 0 then Obs_json.null
       else Obs_json.float (c.c_ns /. float_of_int c.c_samples)) ]

let document ?(source = "") ?(tool = "") ?(wall = 0.)
    ?(stats = []) ?(top = 20) (t : t) =
  let base =
    [ ("schema", Obs_json.str schema_version);
      ("source", Obs_json.str source);
      ("tool", Obs_json.str tool);
      ("wall_s", Obs_json.float wall) ]
  in
  match t with
  | None ->
    Obs_json.obj
      (base
      @ [ ("enabled", Obs_json.bool false);
          ("totals",
           Obs_json.obj [ ("accesses", Obs_json.int 0) ]) ])
  | Some e ->
    let same, epoch, vc = class_totals t in
    let acc = same + epoch + vc in
    let totals = rules_totals e in
    Obs_json.obj
      (base
      @ [ ("enabled", Obs_json.bool true);
          ("totals",
           Obs_json.obj
             [ ("accesses", Obs_json.int acc);
               ("same_epoch", Obs_json.int same);
               ("epoch", Obs_json.int epoch);
               ("vc", Obs_json.int vc);
               ("fast_frac", Obs_json.float (fast_frac t));
               ("same_epoch_frac", Obs_json.float (same_epoch_frac t));
               ("sync_vc_ops", Obs_json.int e.sync_vc_ops) ]);
          ("rules",
           Obs_json.arr
             (Array.to_list
                (Array.mapi
                   (fun i name ->
                     Obs_json.obj
                       [ ("name", Obs_json.str name);
                         ("class",
                          Obs_json.str
                            (class_to_string e.rule_classes.(i)));
                         ("hits", Obs_json.int totals.(i)) ])
                   e.rule_names)));
          ("census",
           Obs_json.obj
             [ ("taken", Obs_json.bool e.census_taken);
               ("vars", Obs_json.int e.cs_vars);
               ("epoch_only",
                Obs_json.int (e.cs_vars - e.cs_inflated));
               ("inflated", Obs_json.int e.cs_inflated);
               ("ever_inflated", Obs_json.int (ever_inflated e));
               ("inflations", Obs_json.int e.tot_inflations);
               ("deflations", Obs_json.int e.tot_deflations);
               ("state_words", Obs_json.int e.cs_words);
               ("rvc_words", Obs_json.int e.cs_rvc_words);
               ("approx_bytes", Obs_json.int (e.cs_words * word_bytes)) ]);
          ("top_vars",
           Obs_json.arr
             (List.map (fun (c, _) -> cell_json e c) (top_cells ~k:top e)));
          ("timing",
           Obs_json.obj
             [ ("stride", Obs_json.int e.stride);
               ("samples", Obs_json.int e.t_samples);
               ("fast_ns_log2", buckets_json e.buckets_fast);
               ("vc_ns_log2", buckets_json e.buckets_vc) ]);
          ("series_points", Obs_json.int e.series_n);
          ("stats",
           Obs_json.obj
             (List.map (fun (k, v) -> (k, Obs_json.int v)) stats)) ])

let write_file ~path ?source ?tool ?wall ?stats ?top t =
  let doc = document ?source ?tool ?wall ?stats ?top t in
  if path = "-" then begin
    Obs_json.to_channel stdout doc;
    print_newline ()
  end
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Obs_json.to_channel oc doc;
        output_char oc '\n')
  end

(* ------------------------------------------------------------------ *)
(* Human panel                                                        *)

let si n =
  let f = float_of_int n in
  if f >= 1e9 then Printf.sprintf "%.2fG" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2fM" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fk" (f /. 1e3)
  else string_of_int n

let pct f = Printf.sprintf "%.1f%%" (100. *. f)

let bytes_si n =
  let f = float_of_int n in
  if f >= 1073741824. then Printf.sprintf "%.2f GiB" (f /. 1073741824.)
  else if f >= 1048576. then Printf.sprintf "%.2f MiB" (f /. 1048576.)
  else if f >= 1024. then Printf.sprintf "%.1f KiB" (f /. 1024.)
  else Printf.sprintf "%d B" n

(* Median bucket of a log2-ns histogram, as ~2^i ns; None when empty. *)
let median_ns buckets =
  let total = Array.fold_left ( + ) 0 buckets in
  if total = 0 then None
  else begin
    let half = (total + 1) / 2 in
    let rec go i seen =
      if i >= Array.length buckets then None
      else begin
        let seen = seen + buckets.(i) in
        if seen >= half then Some (1 lsl i) else go (i + 1) seen
      end
    in
    go 0 0
  end

let render ?(top = 10) ?(source = "") ?(tool = "") (t : t) =
  match t with
  | None -> [ "profile: disabled" ]
  | Some e ->
    let same, epoch, vc = class_totals t in
    let acc = same + epoch + vc in
    let header =
      Printf.sprintf "== profile: %s%s =="
        (if source = "" then "(run)" else source)
        (if tool = "" then "" else Printf.sprintf " [%s]" tool)
    in
    let totals_line =
      Printf.sprintf
        "accesses  %s | O(1) %s (same-epoch %s) | VC walks %s | sync-vc %s"
        (si acc)
        (pct (frac (same + epoch) acc))
        (pct (frac same acc))
        (pct (frac vc acc))
        (si e.sync_vc_ops)
    in
    let totals = rules_totals e in
    let rule_lines =
      Array.to_list
        (Array.mapi
           (fun i name ->
             Printf.sprintf "  %-18s %-10s %10s  %s" name
               (class_to_string e.rule_classes.(i))
               (si totals.(i))
               (pct (frac totals.(i) acc)))
           e.rule_names)
    in
    let census_line =
      if not e.census_taken then "census    (not taken)"
      else
        Printf.sprintf
          "census    %s vars | epoch-only %s (%s) | inflated now %d | \
           ever %d | inflations %d / deflations %d"
          (si e.cs_vars)
          (si (e.cs_vars - e.cs_inflated))
          (pct (frac (e.cs_vars - e.cs_inflated) e.cs_vars))
          e.cs_inflated (ever_inflated e) e.tot_inflations
          e.tot_deflations
    in
    let memory_line =
      if not e.census_taken then "shadow    (no census)"
      else
        Printf.sprintf "shadow    ~%s (read-VCs %s)"
          (bytes_si (e.cs_words * word_bytes))
          (bytes_si (e.cs_rvc_words * word_bytes))
    in
    let timing_line =
      let med label buckets =
        match median_ns buckets with
        | None -> Printf.sprintf "%s ~-" label
        | Some ns -> Printf.sprintf "%s ~%sns" label (si ns)
      in
      Printf.sprintf "timing    %s samples @ stride %d | %s | %s"
        (si e.t_samples) e.stride
        (med "O(1) p50" e.buckets_fast)
        (med "vc p50" e.buckets_vc)
    in
    let var_lines =
      List.mapi
        (fun i (c, ops) ->
          let vc = by_class e c.c_rules Vc in
          Printf.sprintf "  %2d  %-12s %10s  fast %-6s vc %-6s infl %d%s%s"
            (i + 1) c.c_name (si ops)
            (pct (frac (ops - vc) ops))
            (si vc) c.c_inflations
            (if c.c_inflated_now then " [inflated]" else "")
            (if c.c_samples > 0 then
               Printf.sprintf "  ~%.0fns/op"
                 (c.c_ns /. float_of_int c.c_samples)
             else ""))
        (top_cells ~k:top e)
    in
    (header :: totals_line :: rule_lines)
    @ [ census_line; memory_line; timing_line;
        "top variables by detector ops:" ]
    @ var_lines

type t =
  | Read of { t : Tid.t; x : Var.t }
  | Write of { t : Tid.t; x : Var.t }
  | Acquire of { t : Tid.t; m : Lockid.t }
  | Release of { t : Tid.t; m : Lockid.t }
  | Fork of { t : Tid.t; u : Tid.t }
  | Join of { t : Tid.t; u : Tid.t }
  | Volatile_read of { t : Tid.t; v : Volatile.t }
  | Volatile_write of { t : Tid.t; v : Volatile.t }
  | Barrier_release of { threads : Tid.t list }
  | Txn_begin of { t : Tid.t }
  | Txn_end of { t : Tid.t }

let tid = function
  | Read { t; _ }
  | Write { t; _ }
  | Acquire { t; _ }
  | Release { t; _ }
  | Fork { t; _ }
  | Join { t; _ }
  | Volatile_read { t; _ }
  | Volatile_write { t; _ }
  | Txn_begin { t }
  | Txn_end { t } ->
    Some t
  | Barrier_release _ -> None

let is_access = function
  | Read _ | Write _ -> true
  | Acquire _ | Release _ | Fork _ | Join _ | Volatile_read _
  | Volatile_write _ | Barrier_release _ | Txn_begin _ | Txn_end _ ->
    false

let is_sync = function
  | Acquire _ | Release _ | Fork _ | Join _ | Volatile_read _
  | Volatile_write _ | Barrier_release _ ->
    true
  | Read _ | Write _ | Txn_begin _ | Txn_end _ -> false

let equal (a : t) (b : t) = a = b

let pp_var ppf (x : Var.t) =
  if x.field = 0 then Format.fprintf ppf "x%d" x.obj
  else Format.fprintf ppf "x%d.%d" x.obj x.field

let pp ppf = function
  | Read { t; x } -> Format.fprintf ppf "rd(%d,%a)" t pp_var x
  | Write { t; x } -> Format.fprintf ppf "wr(%d,%a)" t pp_var x
  | Acquire { t; m } -> Format.fprintf ppf "acq(%d,m%d)" t m
  | Release { t; m } -> Format.fprintf ppf "rel(%d,m%d)" t m
  | Fork { t; u } -> Format.fprintf ppf "fork(%d,%d)" t u
  | Join { t; u } -> Format.fprintf ppf "join(%d,%d)" t u
  | Volatile_read { t; v } -> Format.fprintf ppf "vrd(%d,v%d)" t v
  | Volatile_write { t; v } -> Format.fprintf ppf "vwr(%d,v%d)" t v
  | Barrier_release { threads } ->
    Format.fprintf ppf "barrier(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      threads
  | Txn_begin { t } -> Format.fprintf ppf "begin(%d)" t
  | Txn_end { t } -> Format.fprintf ppf "end(%d)" t

let to_string e = Format.asprintf "%a" pp e

(* Concrete-syntax parser for the printer above.  Events are written as
   [name(arg,arg)]; variables as [xN] or [xN.F], locks as [mN],
   volatiles as [vN].  Every id is range-checked here, at the parse
   boundary: detectors index dense arrays by them, so a negative id
   would crash them, and a tid past [Epoch.max_tid] cannot be packed
   into an epoch (and would size per-thread arrays by it). *)

exception Bad of string

(* [line] is the whole event text, quoted in every diagnostic.  The
   helpers are top-level so that parsing a line allocates no closure. *)
let fail line fmt =
  Printf.ksprintf
    (fun msg -> raise_notrace (Bad (Printf.sprintf "%s in %S" msg line)))
    fmt

let parse_nat line what ~max a =
  match int_of_string_opt a with
  | Some n when n >= 0 && n <= max -> n
  | Some n when n < 0 -> fail line "negative %s %d" what n
  | Some n -> fail line "%s %d out of range [0, %d]" what n max
  | None -> fail line "bad %s %S" what a

let parse_tid line a =
  parse_nat line "tid" ~max:Epoch.max_tid (String.trim a)

let parse_id line prefix what a =
  let a = String.trim a in
  if String.length a > 1 && a.[0] = prefix then
    parse_nat line what ~max:max_int (String.sub a 1 (String.length a - 1))
  else fail line "bad %s %S" what a

let parse_var line a =
  let a = String.trim a in
  if String.length a < 2 || a.[0] <> 'x' then fail line "bad variable %S" a
  else
    match String.split_on_char '.' (String.sub a 1 (String.length a - 1)) with
    | [ o ] -> Var.scalar (parse_nat line "object" ~max:max_int o)
    | [ o; f ] ->
      let obj = parse_nat line "object" ~max:max_int o in
      Var.make ~obj ~field:(parse_nat line "field" ~max:Var.max_field f)
    | _ -> fail line "bad variable %S" a

let of_string s =
  let l = String.trim s in
  try
    match String.index_opt l '(' with
    | None -> fail l "missing '('"
    | Some i ->
      if l.[String.length l - 1] <> ')' then fail l "missing ')'";
      let name = String.sub l 0 i in
      let args = String.sub l (i + 1) (String.length l - i - 2) in
      match (name, String.split_on_char ',' args) with
      | "rd", [ t; x ] -> Ok (Read { t = parse_tid l t; x = parse_var l x })
      | "wr", [ t; x ] -> Ok (Write { t = parse_tid l t; x = parse_var l x })
      | "acq", [ t; m ] ->
        Ok (Acquire { t = parse_tid l t; m = parse_id l 'm' "lock" m })
      | "rel", [ t; m ] ->
        Ok (Release { t = parse_tid l t; m = parse_id l 'm' "lock" m })
      | "fork", [ t; u ] ->
        Ok (Fork { t = parse_tid l t; u = parse_tid l u })
      | "join", [ t; u ] ->
        Ok (Join { t = parse_tid l t; u = parse_tid l u })
      | "vrd", [ t; v ] ->
        Ok
          (Volatile_read
             { t = parse_tid l t; v = parse_id l 'v' "volatile" v })
      | "vwr", [ t; v ] ->
        Ok
          (Volatile_write
             { t = parse_tid l t; v = parse_id l 'v' "volatile" v })
      | "barrier", parts ->
        Ok (Barrier_release { threads = List.map (parse_tid l) parts })
      | "begin", [ t ] -> Ok (Txn_begin { t = parse_tid l t })
      | "end", [ t ] -> Ok (Txn_end { t = parse_tid l t })
      | ("rd" | "wr" | "acq" | "rel" | "fork" | "join" | "vrd" | "vwr"
        | "begin" | "end"), _ ->
        fail l "bad %s args" name
      | _ -> fail l "unknown event"
  with Bad msg -> Error msg

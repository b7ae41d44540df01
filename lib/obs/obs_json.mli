(** Minimal hand-rolled JSON emission (no JSON library in the image):
    the one writer the observability exporters, the CLI and the bench
    harness's [--json] records share.

    A value is a function that appends its rendering to a buffer, so
    documents compose without intermediate strings. *)

type t = Buffer.t -> unit

val str : string -> t
val int : int -> t

val float : float -> t
(** Finite floats render with [%.6g]; NaN and infinities render as
    [null] (JSON has no lexical form for them). *)

val bool : bool -> t
val null : t

val arr : t list -> t
val obj : (string * t) list -> t

val to_string : t -> string
val to_channel : out_channel -> t -> unit

val escape : string -> string
(** JSON string-body escaping (quotes, backslash, control chars). *)

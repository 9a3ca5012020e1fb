(** The one JSON layer of the toolchain: a value type, one printer and
    one parser for every document it writes or gates (BENCH.json, the
    certificate documents, the memtrace traces, the chaos campaign).

    The repo carries no JSON dependency, so both sides are small and
    hand-written, and they agree by construction: the parser decodes
    everything the printer emits.

    - Strings: a double quote and a backslash are backslash-escaped, a
      newline is [\n], every other byte below 0x20 is [\u00XX]; all
      other bytes (UTF-8 included) pass through unchanged.
    - Numbers: one rule for every float.  An integral value prints
      with neither fraction nor exponent ([%.0f]); any other finite
      value prints in the shortest [%g] form that parses back to the
      same float.  Non-finite values print as [null].  So a byte
      counter or a modeled time read back from a document is the value
      that was written, and the gates compare exact numbers. *)

(** A JSON value.  Numbers are [float]: every integer up to 2{^53}
    round-trips exactly. *)
type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in source order *)

val int : int -> t
(** [int n] is [Num (float_of_int n)]. *)

(** {1 Printing} *)

val number : float -> string
(** The number rule above, on one float. *)

val to_string : t -> string
(** The compact rendering: no whitespace between tokens, members in
    list order. *)

(** {1 Parsing} *)

val parse : string -> (t, string) result
(** Parse one complete JSON document.  Trailing input (beyond
    whitespace) is an error, as is any malformed construct; the error
    string names the byte offset.  A [\uXXXX] escape decodes to the
    UTF-8 encoding of its code point (a surrogate, which has none, to
    U+FFFD). *)

(** {1 Accessors}

    All accessors are total: a shape mismatch yields [None], never an
    exception, so gate code can probe optional fields freely. *)

val member : string -> t -> t option
(** [member k v] is the value of key [k] when [v] is an object that
    has it. *)

val arr : t -> t list option
(** The elements, when the value is an array. *)

val num : t -> float option
(** The number, when the value is one. *)

val str : t -> string option
(** The string, when the value is one. *)

val num_at : string list -> t -> float option
(** [num_at path v] descends through nested objects along [path] and
    returns the number at the end, if every step exists. *)

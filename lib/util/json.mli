(** A minimal JSON value type, printer and parser, enough for the
    machine-readable surfaces of this repository (metrics snapshots, the
    [--json] outputs, and the [eba serve] wire protocol).

    Strings are escaped per RFC 8259; floats print with enough digits to
    round-trip ([%.17g]) except for integral values, which print as
    [x.0] so consumers can rely on a stable numeric shape. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val pp : Format.formatter -> t -> unit
(** Pretty-prints with 2-space indentation and a deterministic layout
    (object fields in the order given). *)

val to_string : t -> string
(** [Format.asprintf "%a" pp], with a trailing newline. *)

val to_file : string -> t -> unit
(** Writes {!to_string} to a file, truncating it.  The write is atomic:
    the document lands in a temporary file in the same directory which is
    renamed over [path] only once fully written, so an interrupted run
    (SIGINT mid-sweep, crash) never leaves a truncated artifact behind —
    and the temporary is removed if the write itself fails. *)

(** {1 Parsing}

    {!parse} accepts the RFC 8259 grammar, with the deviations below —
    exactly the documents {!pp} emits round-trip ({!parse} ∘ {!to_string}
    is the identity on values with finite floats, which is all the
    emitter can represent):

    - {b Input} is a single JSON text: optional whitespace (space, tab,
      CR, LF), one value, optional whitespace, end of input.  Anything
      after the value is rejected as {!Trailing_garbage} — a frame
      carrying two concatenated documents is an error, never a silent
      truncation.
    - {b Numbers} follow the RFC grammar: an optional minus, an integer
      part with no superfluous leading zero, then an optional [.digits]
      fraction and an optional [e±digits] exponent.  A number with no
      fraction and no exponent that fits in an OCaml [int] parses as
      {!Int}; every other number parses as {!Float} via
      [float_of_string] (so the emitter's [%.17g] renderings round-trip
      exactly).  [NaN]/[Infinity] literals are not part of JSON and are
      rejected (the emitter prints non-finite floats as [null]).
    - {b Strings} are UTF-8; the eight single-character escapes (quote,
      backslash, slash, backspace, form feed, newline, carriage return,
      tab) and [\uXXXX] are decoded, including surrogate pairs.  A lone
      surrogate or malformed [\uXXXX] sequence is a {!Bad_escape}; raw
      control characters below [0x20] must be escaped.
    - {b Objects} preserve field order and keep duplicate keys (the
      emitter is field-order-deterministic, so round-trips are exact).
    - {b Nesting} beyond [max_depth] containers (default
      {!default_max_depth}) fails with {!Too_deep} instead of risking
      stack exhaustion on adversarial input. *)

type failure =
  | Unexpected_end  (** input stopped mid-value *)
  | Unexpected_char of char
  | Bad_escape  (** malformed [\u] sequence, lone surrogate, unknown escape *)
  | Bad_number  (** a number token violating the RFC grammar *)
  | Too_deep of int  (** nesting exceeded the bound (the bound is carried) *)
  | Trailing_garbage  (** a complete value followed by non-whitespace *)

type error = { at : int;  (** byte offset into the input *) failure : failure }

val failure_to_string : failure -> string
val error_to_string : error -> string
(** ["trailing garbage at byte 42"]-style one-liner for error replies. *)

val default_max_depth : int
(** [512]. *)

val parse : ?max_depth:int -> string -> (t, error) result
(** Parse one JSON text per the grammar above.  Never raises. *)

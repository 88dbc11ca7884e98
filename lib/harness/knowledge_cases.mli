(** The pinned [knowledge-query] cases shared by the golden test and its
    regenerator: every protocol in {!Eba.Zoo.names} on crash [n = 4],
    [t = 1], [T = 3] and omission [n = 3], [t = 1], [T = 3].

    Each case records the served [query:"spec"] result bytes (through
    {!Eba.Server.Registry.prepare}, exactly what the daemon replies) and
    the witness lists of {!Eba.Characterize.optimality_failures} and
    {!Eba.Characterize.necessary}.  The witnesses are computed in one
    knowledge environment per universe, shared by all seven protocols, so
    the file also pins that evaluating many formulas in one long-lived
    environment answers exactly as a fresh one does. *)

val render : unit -> string
(** The whole golden document, one line per served reply and per
    witness. *)

(** Hash-consed full-information views (Section 2.4).

    In a full-information protocol each processor sends its entire state to
    everybody in every round, so its state at time [m] is determined by its
    name, its initial value, and — for each earlier round — which of the
    other processors' states it received.  Views form a DAG; hash-consing
    makes state identity ([r_i(m) = r'_i(m')], the heart of the knowledge
    semantics) a constant-time integer comparison and lets millions of
    points share structure.

    Because a view records its owner's name and its depth records the time,
    two equal views always have the same owner and time — the form the
    paper's indistinguishability takes for full-information protocols. *)

module Bitset = Eba_util.Bitset
module Value = Eba_sim.Value

type id = int
(** A view identifier, dense in [0 .. size store - 1]. *)

type store
(** A mutable hash-consing arena for one model, laid out flat: view [v]'s
    key — kind, owner, prev id or initial value, then the [n] received ids
    ([-1] for none) — is [n + 3] ints of one array from [v * (n + 3)], and
    its time, initial value, heard set and knows-zero flag are packed into
    one metadata int.  The interner is an open-addressing slot table hashed
    over the key ints: interning a new view allocates no per-view block,
    and re-interning an existing one allocates nothing.  The arrays are
    allocated once at the capacity the store is created with and double
    when a view past it is interned (counted by the [view.grows] metric);
    a store is never merged into another.

    Reads are safe from any domain once interning has stopped; interning is
    single-domain (one domain per store at a time). *)

val max_n : int
(** The largest processor count a store accepts (32): the metadata int
    holds the heard set in its low [n] bits. *)

val create_store : n:int -> capacity:int -> unit -> store
(** [n] is the number of processors (fixes the arity of interior nodes);
    [capacity] is the number of views the store holds before it first
    grows.  Raises [Invalid_argument] unless [0 <= n <= max_n]. *)

val leaf : store -> owner:int -> Value.t -> id
(** The time-0 view of [owner] with the given initial value. *)

val node : store -> owner:int -> prev:id -> received:id option array -> id
(** The view after one more round: [prev] is [owner]'s previous view and
    [received.(j)] is the view [j] sent in that round, if it was delivered.
    [received.(owner)] must be [None].  Raises [Invalid_argument] if a
    referenced view is not in the store or the owners or times are
    inconsistent. *)

val node_parts : store -> owner:int -> prev:id -> parts:id array -> id
(** The unchecked fast path behind {!node}: [parts.(j)] is the view
    received from [j], or [-1] for none ([parts.(owner)] must be [-1]).
    The key is probed through a scratch buffer, so re-interning an existing
    view allocates nothing; [parts] is borrowed and may be reused by the
    caller immediately.  Preconditions ({!node}'s owner/time checks) are
    the caller's responsibility. *)

val node_row : store -> owner:int -> row:id array -> base:int -> delivered:int -> id
(** The model builder's fast path: [row.(base + j)] is processor [j]'s view
    one round earlier, for every [j], and bit [j] of [delivered] says
    whether [j]'s message reached [owner] (bit [owner] must be clear).  The
    key is written straight into the scratch buffer, so a hit allocates
    nothing.  Unchecked, like {!node_parts}. *)

val size : store -> int
(** Number of distinct views allocated so far. *)

val n : store -> int
val owner : store -> id -> int
val time : store -> id -> int
val init_value : store -> id -> Value.t
(** The owner's initial value. *)

val prev : store -> id -> id option
(** The owner's view one round earlier ([None] for leaves). *)

val received : store -> id -> int -> id option
(** [received store v j] is the view received from [j] in the view's last
    round ([None] for leaves, for [j = owner], and for omitted messages).
    Raises [Invalid_argument] unless [0 <= j < n store]. *)

val heard_from : store -> id -> Bitset.t
(** Senders whose message arrived in the view's last round (empty for
    leaves). *)

val knows_zero : store -> id -> bool
(** Structural test: does the view contain an initial value of 0 anywhere?
    For crash and sending-omission full-information systems this coincides
    with [K_i ∃0]; the coincidence is property-tested, not assumed, by the
    epistemic layer's test-suite. *)

val pp : store -> Format.formatter -> id -> unit
(** Concise rendering, e.g. [p2@3:v1<-{0,1}]. *)

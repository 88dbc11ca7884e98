(** A little logic of knowledge and time over one model: the language of
    Section 3, closed under the Booleans, [K_i], [B^S_i], [E_S], [C_S],
    [E□_S], [C□_S] and the temporal operators.

    Formulas are built against a fixed model (atoms are extensional point
    sets), evaluated to point sets, and printed for diagnostics.

    An {!env} evaluates each formula once.  It memoizes the point set of
    every evaluated node other than constants and atoms, keyed on the
    node's shape over the identity of its leaves: nodes with the same
    constructors and operands over physically the same atoms and nonrigid
    sets share one entry, since their results coincide.  It also keeps
    the continual-knowledge closure of each nonrigid set [S], so repeated
    [C□_S] evaluations cost one union-find, and each conjunction
    [S ∧ A] ({!conjoin}), keyed on the decision-set object [A] itself,
    so conjoining the same set again returns the same nonrigid set and
    every node and closure above it is shared too.  All three tables hold
    their keys weakly (ephemerons): an entry lasts while nodes of its
    class (or its nonrigid set, or its decision set) are still in use, so
    a long-lived env does not grow with the values its callers drop.

    Identity matters, as for {!Nonrigid} sets: build each atom and
    nonrigid set once and reuse the value.  A structurally equal copy of
    a leaf (a second [exists_value] atom, a second [Nonrigid.nonfaulty],
    a copy of a decision set) is a different key, and every node above it
    is evaluated again.  The env builds the leaves every construction
    shares, [𝒩] ({!nonfaulty}) and [∃0]/[∃1] ({!exists}), once when it is
    created.

    The conjunction table hashes a decision set's bytes, so it relies on
    decision sets never being written after they are built.  An env is
    not safe to share: it belongs to the one domain that uses it (the
    model underneath may be shared). *)

module Model = Eba_fip.Model
module Value = Eba_sim.Value

type t =
  | Const of bool
  | Atom of string * Pset.t
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | In of Nonrigid.t * int  (** [i ∈ S] *)
  | K of int * t
  | B of Nonrigid.t * int * t
  | E of Nonrigid.t * t
  | C of Nonrigid.t * t
  | Ebox of Nonrigid.t * t
  | Cbox of Nonrigid.t * t
  | Cdia of Nonrigid.t * t  (** eventual common knowledge [C◇_S] *)
  | Empty of Nonrigid.t  (** [S = ∅] at the current point *)
  | Always of t  (** [□] *)
  | Eventually of t  (** [◇] *)
  | Throughout of t  (** [⊟] *)

val atom : Model.t -> string -> (int -> bool) -> t
(** [atom model name pred] tabulates a point predicate. *)

val run_atom : Model.t -> string -> (Model.run -> int -> bool) -> t
(** [run_atom model name pred] tabulates [pred run time] run by run.
    [pred run] is applied once per run, so work that depends only on the
    run (its configuration, faulty set, decision outcomes) belongs before
    the returned per-time test. *)

val exists_value : Model.t -> Value.t -> t
(** The paper's [∃0] / [∃1]. *)

val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val neg : t -> t

type env

val env : Model.t -> env
val model : env -> Model.t

val nonfaulty : env -> Nonrigid.t
(** The env's [𝒩], {!Nonrigid.nonfaulty} of its model: one value per env,
    so every [B^N_i], [In (N, i)] and [N ∧ A] built on it shares memo
    entries and closures. *)

val exists : env -> Value.t -> t
(** The env's [∃0] / [∃1] atoms ({!exists_value}), one per env. *)

val conjoin : env -> Nonrigid.t -> name:string -> Bytes.t -> Nonrigid.t
(** [conjoin env s ~name a] is [Nonrigid.restrict_by_view model ~name s a]
    (the paper's [S ∧ A]), computed once per table object [a], [s] and
    [name]: the same [a] (physically), [s] and [name] again return the
    first result.  [a] must not be written afterwards. *)

val eval : env -> t -> Pset.t
(** The points at which the formula holds.  The result is shared with the
    env's memo (and, for an [Atom], is the atom's own set): treat it as
    read-only. *)

val holds : env -> t -> point:int -> bool

val valid : env -> t -> bool
(** True iff the formula holds at every point of the model — the paper's
    [ℛ ⊨ φ]. *)

val counterexample : env -> t -> int option
(** Some point where the formula fails, if any. *)

val pp : Format.formatter -> t -> unit

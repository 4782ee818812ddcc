(** The reply side of an SRM host's per-loss state, one row per packed
    [(src, seq)] {!Key.t}: the scheduled reply, the reply abstinence
    horizon and the last reply sent.

    An open-addressed table whose rows are unboxed int and float
    columns, one array per column, so an insert, lookup, update or
    removal allocates nothing. Before it would grow, the table drops
    every row its owner calls disposable (rows that hold nothing
    observable, such as a passed abstinence horizon), so it stays sized
    to the live reply state; growth, amortized, allocates the doubled
    arrays. A row is addressed by its index, valid until the next
    {!add}, {!remove}, {!filter} or {!reset}; read and write its
    columns as array cells ([t.abstain.(r)]), refetching the array
    after any of those calls, since growth replaces it. A column that
    holds nothing reads {!Sim.Engine.no_timer} or [nan]. *)

type t = private {
  mutable keys : int array;  (** the row's key; [-1] marks an empty slot *)
  mutable timer : Sim.Engine.timer array;
      (** the scheduled reply's timer, {!Sim.Engine.no_timer} when none *)
  mutable requestor : int array;  (** the scheduled reply's requestor *)
  mutable round : int array;  (** the answered request's round *)
  mutable d_qs : float array;  (** the request's requestor-to-source distance *)
  mutable delay_norm : float array;
      (** the reply delay in units of the requestor distance (adaptive
          timers' feedback) *)
  mutable abstain : float array;  (** reply abstinence horizon, [nan] when none *)
  mutable replied : float array;  (** when we last replied, [nan] when never *)
  mutable count : int;  (** rows held *)
  mutable shift : int;
  initial_bits : int;
  disposable : t -> int -> bool;
}
(** [private]: the columns' cells are the host's to read and write;
    the arrays and the key layout are the table's. The reply columns
    [requestor], [round], [d_qs] and [delay_norm] mean something only
    while [timer] is pending. *)

val create : disposable:(t -> int -> bool) -> int -> t
(** [create ~disposable n] holds [n] rows before it first grows.
    [disposable t r] says whether row [r] may be dropped to make room:
    it must hold only what its absence would also say. It is called
    during {!add} and must not add or remove rows. *)

val find : t -> Key.t -> int
(** The key's row, or [-1]. *)

val add : t -> Key.t -> int
(** The key's row, inserted blank (no timer, [nan] floats, zero
    reply columns) if absent. Inserting may drop disposable rows of
    other keys. *)

val remove : t -> Key.t -> unit

val filter : t -> (int -> bool) -> unit
(** [filter t keep] offers every row to [keep] once and removes the
    rows it rejects. [keep] may write the row's columns but must not
    add or remove rows. *)

val iter : t -> (int -> unit) -> unit
(** Every row, in slot order. [f] may write columns but must not add
    or remove rows. The order depends on the hash, so nothing whose
    outcome depends on order may iterate this table. *)

val reset : t -> unit
(** Drop every row and shrink back to the created capacity. *)

(** Ablation experiments for the design choices DESIGN.md calls out:
    the cache retention scheme, the cache size, the reorder delay, the link
    delay (the paper's 10/20/30 ms robustness claim), lossy recovery
    (the paper's [10] variant), and router-assisted local recovery
    (Section 3.3). Each function runs its sweep and renders a table. *)

val retentions : ?n_packets:int -> Mtrace.Meta.row list -> string
(** The paper's 1-entry cache and each retention scheme ([recent],
    [lru], [hotspot], and [hotspot=inf] for the paper's most-frequent
    pair): average normalized recovery, expedited success, expedited
    requests. *)

val cache_sizes : ?n_packets:int -> ?sizes:int list -> Mtrace.Meta.row -> string

val reorder_delays : ?n_packets:int -> ?delays:float list -> Mtrace.Meta.row -> string

val link_delays : ?n_packets:int -> ?delays:float list -> Mtrace.Meta.row -> string
(** The paper ran 10, 20 and 30 ms and found the results very similar;
    normalized metrics should be nearly delay-invariant. *)

(** A setup switch the paper holds fixed; {!toggle} runs it off, then
    on. *)
type setting =
  | Lossy_recovery
      (** Recovery packets dropped per estimated link rates: latencies
          grow slightly, CESRM's advantage persists (paper Section
          4.3). *)
  | Lossy_sessions
      (** Drop session packets per link rates, violating the paper's
          lossless-session assumption: distance estimates still
          converge and the comparison is unchanged. *)
  | Heterogeneous_delays
      (** Uniform vs per-link log-uniform delays: the suppression
          timers are distance-driven, so the normalized comparison
          survives latency heterogeneity the paper did not model. *)

val toggle : ?n_packets:int -> setting -> Mtrace.Meta.row list -> string
(** SRM vs CESRM average normalized recovery, CESRM's reduction and the
    unrecovered count, per row with the setting off and on. *)

val router_assist : ?n_packets:int -> Mtrace.Meta.row list -> string
(** Exposure of retransmissions: average link crossings per reply with
    and without turning-point subcasting. *)

val reordering : ?n_packets:int -> Mtrace.Meta.row -> string
(** Packet reordering (send jitter beyond one period) with
    REORDER-DELAY ∈ {0, 2·jitter}: without the delay, transient gaps
    trigger spurious expedited requests; with it they are cancelled by
    the late packet's arrival (Section 3.2's rationale). *)

val adaptive_timers : ?n_packets:int -> Mtrace.Meta.row list -> string
(** Fixed vs adaptive SRM scheduling parameters: the adaptive variant
    (Floyd et al. §VI) rebalances the duplicate-suppression / latency
    trade-off per host (here it buys latency at a few percent more
    duplicates). *)

val scaling : ?n_packets:int -> ?sizes:int list -> unit -> string
(** Group-size sweep on synthetic rows (5% per-receiver loss): how the
    SRM-vs-CESRM gap evolves as the group grows. *)

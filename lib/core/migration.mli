(** HMN stage 2 — Migration (paper §4.2).

    Greedy load-balancing on top of the Hosting assignment. Each round:

    + pick the most loaded host (smallest residual CPU) that still has
      guests;
    + on it, pick the guest with the smallest total bandwidth to
      co-located guests (moving it off-host strains the network
      least);
    + scan target hosts from least loaded upward (ties in
      {!Hmn_testbed.Cluster.host_ids} order) and perform the first
      move that strictly improves the load-balance factor (Eq. 10) and
      fits.

    Rounds repeat while a move happened; when no move from the most
    loaded host improves the objective, the stage ends. The LBF is
    strictly decreasing across moves, which bounds the loop; an
    explicit [max_moves] cap (default [16 * guests]) guards against
    floating-point pathologies.

    Moving a guest of CPU demand [v] from residual [x_o] to [x_t] keeps
    the mean residual and changes the sum of squares by
    [2v(x_o - x_t + v)], so it can lower the LBF only if
    [x_t -. x_o > v > 0]. The scan selects each target with one
    O(hosts) pass over the hosts that fit and pass this O(1) screen —
    no sort — ends at the first target the screen rejects, and confirms
    the others with {!Hmn_mapping.Objective.load_balance_after_migration}.
    A round therefore costs O(hosts) per confirmation, and the final,
    failing round O(hosts) rather than O(hosts²). With metrics on,
    [migration.moves_tried] counts confirmations. *)

type stats = {
  moves : int;  (** migrations performed *)
  lbf_before : float;
  lbf_after : float;
}

val run : ?max_moves:int -> Hmn_mapping.Placement.t -> stats
(** Mutates the placement in place. Never fails: zero moves is a valid
    outcome. *)

val walk :
  max_moves:int ->
  move:(guest:int -> host:int -> (unit, string) result) ->
  Hmn_mapping.Placement.t ->
  int * int
(** The rounds of {!run}, each accepted move made by [move]; returns the
    moves made and the confirmations tried. [move] must act as
    {!Hmn_mapping.Placement.migrate} on [Ok] and restore the placement
    on [Error], after which the round tries the next target. *)

val colocated_bandwidth : Hmn_mapping.Placement.t -> guest:int -> float
(** Sum of virtual-link bandwidth from [guest] to guests on the same
    host — the stage's victim-selection key (exposed for tests). *)

(** The audited big-M derivations: the threshold staircases' activation
    constant and the operator-choice products' operand bound.

    A threshold-activation row has the shape

    {v lco - M * cto <= log10 theta v}

    where [lco] is a log-cardinality variable with declared upper bound
    [ub_log] and [cto] the binary that fires when the cardinality
    exceeds [theta]. The smallest constant that makes the row vacuous
    once [cto = 1] is exactly [ub_log - log10 theta]; anything larger
    weakens the LP relaxation, anything smaller cuts feasible points.
    {!Milp.Lint} re-derives the same constant from the declared bounds
    (codes [L302]/[L303]), so a drift between an encoder and this helper
    is caught statically. *)

val threshold_activation : ub_log:float -> log_theta:float -> float
(** [threshold_activation ~ub_log ~log_theta] is the tight big-M
    [ub_log -. log_theta] for the row above. The result is non-positive
    exactly when the threshold sits at or above the operand's upper
    bound — the ladder's top rung may overshoot by up to its tolerance
    factor — in which case the row is vacuous in both indicator states
    and the constant's magnitude is irrelevant. *)

val product_bound : float -> float
(** [product_bound ub] is the upper bound to declare on a cost operand
    [x] in [[0, ub]] that {!Milp.Linearize.product_binary_continuous}
    multiplies by a binary [b]: [ub] rounded up to a power of two. The
    product's rows take the declared bound as their big-M [M], which
    {!Milp.Lint} audits like the staircase's ([L302]/[L303]).

    The rounding keeps the row [y - x - M * b >= -M] exact at [b = 1],
    [y = x], where its two large terms cancel. Summed in any order, each
    rounding step errs by at most half the float spacing at [M]; the
    spacing just above a power of two is twice the spacing below it, so
    the sum rounds to [-M] or above for every [x] in [[0, M]]. With an
    unrounded [M] near 1e17 an honest assignment missed the row by 16,
    far beyond an absolute feasibility tolerance. Non-positive and
    non-finite [ub] are returned unchanged. *)

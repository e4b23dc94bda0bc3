"""Scalar linear plants, LQR design and the staleness cost.

Each loop is x' = a x + b u + w with w ~ N(0, sigma_w2) and quadratic
stage cost q x^2 + r u^2. The certainty-equivalent controller uses the
stationary Riccati solution; the remote estimator replays its own past
inputs when a delivered sample is older than the current slot.
"""

import math
from dataclasses import dataclass


class RiccatiError(Exception):
    """Raised when the Riccati fixed-point iteration fails to converge."""


@dataclass
class PlantParams:
    a: float
    b: float = 1.0
    sigma_w2: float = 1.0
    q: float = 1.0
    r: float = 1.0

    def validate(self):
        if not abs(self.a) <= 1.3:
            raise ValueError(f"|a| must not exceed 1.3, got {self.a}")
        if self.b == 0.0 or not math.isfinite(self.b):
            raise ValueError(f"b must be finite and non-zero, got {self.b}")
        if not (math.isfinite(self.sigma_w2) and self.sigma_w2 > 0.0):
            raise ValueError(f"sigma_w2 must be finite and positive, got {self.sigma_w2}")
        if not (math.isfinite(self.q) and self.q > 0.0):
            raise ValueError(f"q must be finite and positive, got {self.q}")
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be finite and positive, got {self.r}")
        return self


def solve_riccati(a, b, q, r, tol=1e-12, max_iter=10**6):
    """Stationary solution of P = q + a^2 P - (a b P)^2 / (r + b^2 P).

    Plain fixed-point iteration from P = q, stopped when successive
    iterates differ by at most `tol`, or when rounding traps them in a
    cycle of values a few ulps apart (large P, where `tol` is below one
    ulp). An iterate equal to the one two steps back ends a two-cycle;
    longer cycles end when an iterate equals a checkpoint, an earlier
    iterate kept at power-of-two step counts. The iterate that closed
    the cycle is then the solution. Either stop needs a repeated
    iterate, and from then on every step repeats a difference already
    held against `tol`, so no plant that `tol` settles is affected.
    Returns (P, L) with the feedback gain L = a b P / (r + b^2 P), so
    that u = -L x_hat.
    Raises RiccatiError when the iteration does not settle or overflows.
    """
    P = q
    before = math.nan  # the iterate before P
    mark = math.nan  # the checkpoint
    next_mark = 1
    a2 = a * a
    b2 = b * b
    for step in range(max_iter):
        try:
            nxt = q + a2 * P - (a * b * P) ** 2 / (r + b2 * P)
        except OverflowError:
            raise RiccatiError(f"iterate overflowed from P = {P!r}") from None
        if abs(nxt - P) <= tol or nxt == before or nxt == mark:
            P = nxt
            return P, a * b * P / (r + b2 * P)
        if step == next_mark:
            mark = nxt
            next_mark *= 2
        before = P
        P = nxt
    raise RiccatiError(f"no convergence within {max_iter} iterations")


def plant_step(x, u, w, a, b):
    """One slot of the plant recursion."""
    return a * x + b * u + w


def stage_cost(x, u, q, r):
    return q * x * x + r * u * u


def aoi_cost(a, sigma_w2, delta):
    """Expected squared estimation error after `delta` slots without news.

    Sum of sigma_w2 * a^(2j) for j = 0 .. delta-1; the empty sum is zero.
    Evaluated in closed form, with the marginally stable a^2 = 1 case
    handled exactly.
    """
    if delta <= 0:
        return 0.0
    a2 = a * a
    if a2 == 1.0:
        return sigma_w2 * delta
    return sigma_w2 * (a2**delta - 1.0) / (a2 - 1.0)


def staleness_cost(table, a2, sigma_w2, delta):
    """g(delta) of a loop's staleness cost table, grown as far as needed.

    table holds g(0) = 0, g(1), ...; entries past its end follow from the
    recursion g(d+1) = a2 g(d) + sigma_w2 (a2 = a^2), aoi_cost summed one
    term at a time, and are appended to it.
    """
    if delta < len(table):
        return table[delta]
    g = table[-1]
    for _ in range(len(table), delta + 1):
        g = a2 * g + sigma_w2
        table.append(g)
    return g


def estimate_no_delivery(x_hat, u, a, b):
    """Open-loop propagation of the estimate under the last applied input."""
    return a * x_hat + b * u


def estimate_from_delivery(x_rx, delta, a, b, inputs):
    """Roll a received sample forward by replaying the applied inputs.

    `inputs` holds the `delta` inputs applied since the sample was taken,
    oldest first. A same-slot delivery (delta = 0) returns the sample.
    """
    if len(inputs) != delta:
        raise ValueError(f"need {delta} replay inputs, got {len(inputs)}")
    x = x_rx
    for u in inputs:
        x = a * x + b * u
    return x

"""Discrete memoryless channels and the information quantities built on them.

A channel is a stochastic matrix of conditional probabilities p(y|x).  All
rates, exponents and divergences are in nats; conversion to bits is always an
explicit division by ln 2 (see ``bits_from_nats`` / ``nats_from_bits``).

Infinite values (divergences across a support mismatch, infinite Burnashev
coefficient, ...) are represented by ``math.inf`` and propagate through
ordinary float arithmetic.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LN2 = math.log(2.0)

ROW_SUM_TOL = 1e-12
CAPACITY_TOL = 1e-12  # certified distance of capacity's value below C


class ConvergenceError(RuntimeError):
    """A solver hit its iteration cap or missed its certificate; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def nats_from_bits(rate_bits: float) -> float:
    return rate_bits * LN2


def bits_from_nats(rate_nats: float) -> float:
    return rate_nats / LN2


@dataclass(frozen=True)
class Dmc:
    """A discrete memoryless channel: ``rows[x, y] = P(Y=y | X=x)``.

    Entries must be finite and 0 or normal doubles (a subnormal entry
    stalls the E0 solver), rows must sum to one within 1e-12 and both
    alphabets must have at least two letters.  The rows are immutable.  The
    facts the bounds read off the rows (``symmetric``, ``uniform``,
    ``capacity_solution``, ``support``, ``divergence_rate``, and the E0
    points in ``e0_points``) are computed on first use and kept read-only
    on the instance: a channel built again from the same rows computes them
    again.  Instances are safe to share across threads: every
    fact is deterministic, so two threads that compute one at once store
    equal values.
    """

    rows: np.ndarray
    name: str = ""

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("channel matrix must be two-dimensional")
        if rows.shape[0] < 2 or rows.shape[1] < 2:
            raise ValueError("need at least two inputs and two outputs")
        if not np.all(np.isfinite(rows)):
            raise ValueError("transition probabilities must be finite")
        if np.any(rows < -ROW_SUM_TOL) or np.any(rows > 1 + ROW_SUM_TOL):
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.any(np.abs(rows.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise ValueError("every row must sum to 1 within 1e-12")
        rows = np.clip(rows, 0.0, 1.0)
        for x, y in np.argwhere((rows > 0) & (rows < np.finfo(float).tiny))[:1]:
            raise ValueError(f"transition probability P({y}|{x}) = {float(rows[x, y])!r} "
                             "is subnormal: it must be 0 or at least 2.2250738585072014e-308")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def input_size(self) -> int:
        return self.rows.shape[0]

    @property
    def output_size(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def symmetric(self) -> bool:
        """``is_output_symmetric``: whether the outputs have a symmetry partition."""
        return is_output_symmetric(self)

    @cached_property
    def uniform(self) -> np.ndarray:
        """The uniform input distribution, a valid input by construction."""
        q = uniform_input(self.input_size)
        q.flags.writeable = False
        return q

    @cached_property
    def capacity_solution(self) -> tuple[float, np.ndarray]:
        """``capacity(self)``: C, certified within ``CAPACITY_TOL`` below it, and an
        achieving input (the uniform one on output-symmetric channels)."""
        value, q = capacity(self)
        q.flags.writeable = False
        return value, q

    @cached_property
    def support(self) -> np.ndarray:
        """The mask ``rows > 0``."""
        mask = self.rows > 0
        mask.flags.writeable = False
        return mask

    @cached_property
    def divergence_rate(self) -> float:
        """R_inf = lim_{rho->inf} E0(rho)/rho = -ln max_{q_Y} min_x q_Y(T_x),
        T_x = supp P(.|x), in nats and without fortification (see
        ``exponents.divergence_rate``): exactly 0 when one output is reached
        by every input, otherwise the piecewise-linear game solved by
        ``minimize_convex_on_simplex`` on max_x -q_Y(T_x), within its
        certified gap (1e-13 in q_Y(T_x))."""
        from .optimize import minimize_convex_on_simplex  # optimize imports dmc
        if self.support.all(axis=0).any():
            return 0.0
        masks = self.support.astype(float)

        def oracle(q):
            covered = masks @ q
            x = int(np.argmin(covered))
            return -float(covered[x]), -masks[x]

        best = minimize_convex_on_simplex(oracle, self.output_size).value
        return -math.log(-best)

    @cached_property
    def e0_points(self) -> dict[float, tuple[float, float, np.ndarray]]:
        """The channel's store of E0 points: rho -> (max_q E0(rho, q), its
        rho-derivative, the read-only maximizing input) for each rho solved
        so far, without fortification.  ``exponents`` fills it and reads
        every bound's E0 from it, so that each rho is solved once per
        channel whichever bound asks for it."""
        return {}

    def digest(self) -> str:
        """Stable content hash, used to label curves."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.rows).tobytes())
        h.update(str(self.rows.shape).encode())
        return h.hexdigest()[:16]

    def row_supports(self) -> list[np.ndarray]:
        return [np.flatnonzero(mask) for mask in self.support]

    def __repr__(self):
        label = self.name or f"{self.input_size}x{self.output_size}"
        return f"Dmc({label})"


def bsc(p: float) -> Dmc:
    """Binary symmetric channel with crossover probability ``p``."""
    if not 0 <= p <= 1:
        raise ValueError("crossover probability must be in [0, 1]")
    return Dmc(np.array([[1 - p, p], [p, 1 - p]]), name=f"BSC({p})")


def bec(beta: float) -> Dmc:
    """Binary erasure channel; outputs are (0, 1, erasure)."""
    if not 0 <= beta <= 1:
        raise ValueError("erasure probability must be in [0, 1]")
    return Dmc(
        np.array([[1 - beta, 0.0, beta], [0.0, 1 - beta, beta]]),
        name=f"BEC({beta})",
    )


def z_channel(nulling: float) -> Dmc:
    """Z-channel: input 0 is noiseless, input 1 is flipped to 0 w.p. ``nulling``."""
    if not 0 <= nulling <= 1:
        raise ValueError("nulling probability must be in [0, 1]")
    return Dmc(np.array([[1.0, 0.0], [nulling, 1 - nulling]]), name=f"Z({nulling})")


def identity_channel(size: int = 2) -> Dmc:
    """Noiseless channel on ``size`` letters; public as the zero-error extreme
    (E0 = ln size at every rho > 0) that the bounds' edge cases are checked on."""
    return Dmc(np.eye(size), name=f"identity{size}")


def validate_distribution(q, size: int | None = None) -> np.ndarray:
    """Check that ``q`` is a point on the input simplex and return it as an array."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("input distribution must be a vector")
    if size is not None and q.shape[0] != size:
        raise ValueError(f"distribution has length {q.shape[0]}, expected {size}")
    if np.any(q < -ROW_SUM_TOL) or abs(q.sum() - 1.0) > ROW_SUM_TOL:
        raise ValueError("input distribution must be nonnegative and sum to 1")
    return np.clip(q, 0.0, None)


def uniform_input(size: int) -> np.ndarray:
    return np.full(size, 1.0 / size)


def mutual_information(p: Dmc, q) -> float:
    """I(q, P) in nats, with 0 log 0 terms treated as zero."""
    q = validate_distribution(q, p.input_size)
    rows = p.rows
    out = q @ rows
    active = (q[:, None] * rows) > 0
    ratio = np.ones_like(rows)
    np.divide(rows, out[None, :], out=ratio, where=active)
    return float(np.sum((q[:, None] * rows)[active] * np.log(ratio[active])))


def capacity(p: Dmc) -> tuple[float, np.ndarray]:
    """C(P) = max_q I(q, P), certified within ``CAPACITY_TOL`` below C, and
    an achieving input.

    Every output law o bounds C <= max_x D(P_x || o), with equality at the
    minimizer o* (Csiszar and Koerner).  The uniform input q is returned when
    that bound at o = qP is within the tolerance of I(q), as on
    output-symmetric channels.  Otherwise ``minimize_convex_on_simplex``
    finds o* on the outputs some input reaches, q* solves q P = o* with
    q >= 0 on the rows within the tolerance of the maximum, by least
    squares in the chi-squared metric sum_y (qP - o*)_y^2 / o*_y, and
    ``ConvergenceError`` is raised unless the program's value less I(q*) is
    within the tolerance.
    """
    from .optimize import minimize_convex_on_simplex  # optimize imports dmc
    rows, mask, reached = p.rows, p.support, p.support.any(axis=0)
    logrows = np.log(np.where(mask, rows, 1.0))

    def divergences(out):  # D(P_x || out) for every x
        logout = np.log(np.where(out > 0, out, 1.0))
        return np.sum(np.where(mask, rows * (logrows - logout), 0.0), axis=1)

    q = uniform_input(p.input_size)
    d = divergences(q @ rows)
    lower = float(q @ d)
    if float(d.max()) - lower <= CAPACITY_TOL:
        return lower, q
    rows, mask, logrows = rows[:, reached], mask[:, reached], logrows[:, reached]

    def oracle(o):
        d = divergences(o)
        return float(d.max()), -rows[np.argmax(d)] / o

    sol = minimize_convex_on_simplex(oracle, int(reached.sum()))
    d = divergences(sol.q)
    ranked = np.argsort(-d, kind="stable")
    # I(q) = sum_x q_x D(P_x || o*) - D(qP || o*), so on rows at the maximum
    # C - I(q) is about sum_y (qP - o*)_y^2 / (2 o*_y): output y's equation
    # is divided by sqrt(o*_y), the chi-squared metric of that gap
    root = np.sqrt(sol.q)
    best = -math.inf
    # the rows within the tolerance of the maximum first; a row with little
    # mass at q* can sit just outside it at the certified o*, so the rows
    # join by rank of divergence until I(q*) meets the certificate
    for size in range(int(np.count_nonzero(d >= d.max() - CAPACITY_TOL)), len(d) + 1):
        active = np.sort(ranked[:size])
        # a row leaves while the least-squares solution gives it negative mass
        while (w := np.linalg.lstsq(np.vstack([rows[active].T / root[:, None],
                                               np.ones(len(active))]),
                                    np.append(root, 1.0), rcond=None)[0]).min() < 0.0:
            active = np.delete(active, np.argmin(w))
        q = np.zeros(p.input_size)
        q[active] = w / w.sum()
        value = mutual_information(p, q)
        if sol.value - value <= CAPACITY_TOL:
            return value, q
        best = max(best, value)
    raise ConvergenceError("capacity certificate not met", sol.value - best)


def divergence_conditional(g: Dmc, p: Dmc, r) -> float:
    """D(G || P | r) in nats; +inf exactly on an absolute-continuity failure.
    Public as the divergence of the Csiszar-Koerner exponents' channel form,
    min over G of D(G || P | r), which the channel search is checked on."""
    if g.rows.shape != p.rows.shape:
        raise ValueError("channels must share alphabet sizes")
    r = validate_distribution(r, g.input_size)
    grows, prows = g.rows, p.rows
    active = (r[:, None] * grows) > 0
    if np.any(active & (prows == 0)):
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(grows / prows)
    return float(np.sum(np.where(active, r[:, None] * grows * ratio, 0.0)))


def divergence_rows(grow: np.ndarray, prow: np.ndarray) -> float:
    """KL divergence between two output distributions, +inf on support mismatch."""
    active = grow > 0
    if np.any(active & (prow == 0)):
        return math.inf
    g, p = grow[active], prow[active]
    return float(np.sum(g * np.log(g / p)))


def c1(p: Dmc) -> float:
    """max_{x,x'} D(P(.|x) || P(.|x')), the Burnashev coefficient.

    Infinite whenever some row has mass on an output another row misses.
    """
    return max(0.0, *(divergence_rows(p.rows[x], p.rows[xp])
                      for x in range(p.input_size) for xp in range(p.input_size) if x != xp))


def _block_is_symmetric(sub: np.ndarray) -> bool:
    # rows permutations of each other and columns permutations of each other
    rows_sorted = np.sort(sub, axis=1)
    if not np.allclose(rows_sorted, rows_sorted[0], atol=1e-12, rtol=0):
        return False
    cols_sorted = np.sort(sub, axis=0)
    return bool(np.allclose(cols_sorted.T, cols_sorted.T[0], atol=1e-12, rtol=0))


def output_symmetry_partition(p: Dmc) -> list[tuple[int, ...]] | None:
    """Gallager's output-symmetry partition, from the column classes.

    Returns a partition of the output letters into blocks whose sub-matrices
    have mutually permuted rows and mutually permuted columns, or None when
    the channel is not output-symmetric.  Each output joins, in index order,
    the first class whose first column has its sorted entries (within
    1e-12).  Such a block's columns are permutations of each other, so every
    one lies inside a class, and a union of them inside a class is one too:
    the classes form such a partition exactly when some partition does.
    """
    cols = np.sort(p.rows, axis=0).T
    close = (np.abs(cols[:, None] - cols[None]) <= 1e-12).all(axis=2).tolist()
    classes: list[list[int]] = []
    for y in range(p.output_size):
        for block in classes:
            if close[y][block[0]]:
                block.append(y)
                break
        else:
            classes.append([y])
    if all(_block_is_symmetric(p.rows[:, block]) for block in classes):
        return [tuple(block) for block in classes]
    return None


def is_output_symmetric(p: Dmc) -> bool:
    """Whether ``output_symmetry_partition`` finds a partition."""
    return output_symmetry_partition(p) is not None

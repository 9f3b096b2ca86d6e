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
CAPACITY_MAX_ITER = 500  # capacity's Newton or Blahut-Arimoto steps


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
        """``capacity(self)``: C, certified within ``CAPACITY_TOL`` below it by
        the Newton loop's last iterate, and that iterate, an achieving input
        (the uniform one on output-symmetric channels)."""
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
    check_real(p, "crossover probability must be in [0, 1]", 0.0, 1.0, "[]")
    return Dmc(np.array([[1 - p, p], [p, 1 - p]]), name=f"BSC({p})")


def bec(beta: float) -> Dmc:
    """Binary erasure channel; outputs are (0, 1, erasure)."""
    check_real(beta, "erasure probability must be in [0, 1]", 0.0, 1.0, "[]")
    return Dmc(
        np.array([[1 - beta, 0.0, beta], [0.0, 1 - beta, beta]]),
        name=f"BEC({beta})",
    )


def z_channel(nulling: float) -> Dmc:
    """Z-channel: input 0 is noiseless, input 1 is flipped to 0 w.p. ``nulling``."""
    check_real(nulling, "nulling probability must be in [0, 1]", 0.0, 1.0, "[]")
    return Dmc(np.array([[1.0, 0.0], [nulling, 1 - nulling]]), name=f"Z({nulling})")


def identity_channel(size: int = 2) -> Dmc:
    """Noiseless channel on ``size`` letters; public as the zero-error extreme
    (E0 = ln size at every rho > 0) that the bounds' edge cases are checked on."""
    check_count(size, "size must be an integer of at least 2, got {}", 2)
    return Dmc(np.eye(size), name=f"identity{size}")


def check_real(value, message: str, lo: float = -math.inf, hi: float = math.inf,
               ends: str = "()") -> None:
    """Raise ``ValueError(message)`` unless ``value`` lies between ``lo`` and
    ``hi``, which it may equal only where ``ends`` closes the interval
    ("[)", "(]" or "[]").  The check of every real argument of the library:
    negated and two-sided, so that nan, which fails every comparison, never
    passes, and neither do +-inf unless an infinite end is closed.  A ``{}``
    in the message is filled with the value."""
    if not ((lo <= value if ends[0] == "[" else lo < value)
            and (value <= hi if ends[1] == "]" else value < hi)):
        raise ValueError(message.format(value))


def check_probability(value, name: str) -> None:
    """``check_real`` on (0, 1), with the message "<name> must lie in (0, 1)"."""
    check_real(value, name + " must lie in (0, 1)", 0.0, 1.0)


def check_count(value, message: str, least: int = 1) -> None:
    """Raise ``ValueError(message)`` unless ``value`` is a whole number, of
    any numeric type, at least ``least``: the check of every period, list
    size, count and horizon.  nan, +-inf and fractions fail it.  A ``{}`` in
    the message is filled with the value."""
    if not (least <= value < math.inf and value % 1 == 0):
        raise ValueError(message.format(value))


def check_seed(value) -> int:
    """A seed as an int: ``check_count`` with no least value, so nan, +-inf
    and fractions raise ``ValueError`` naming the seed.  A negative seed
    passes, for numpy's SeedSequence to reject ("expected non-negative
    integer") when the run draws."""
    check_count(value, "seed must be a whole number, got {}", -math.inf)
    return int(value)


def validate_distribution(q, size: int | None = None) -> np.ndarray:
    """Check that ``q`` is a point on the input simplex and return it as an
    array: every entry at least -1e-12, nan and -inf failing that, and a sum
    within 1e-12 of 1, which +inf fails."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("input distribution must be a vector")
    if size is not None and q.shape[0] != size:
        raise ValueError(f"distribution has length {q.shape[0]}, expected {size}")
    if not (np.all(q >= -ROW_SUM_TOL) and abs(q.sum() - 1.0) <= ROW_SUM_TOL):
        raise ValueError("input distribution must be nonnegative and sum to 1")
    return np.clip(q, 0.0, None)


def uniform_input(size: int) -> np.ndarray:
    return np.full(size, 1.0 / size)


def _certificate(p: Dmc, q: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(I(q), gap, D(P_x || qP) for every x, qP) with I(q) = sum_x q_x D(P_x || qP)
    and gap = max_x D(P_x || qP) - I(q), +inf when qP misses an output some
    input reaches.  Such an output counts as ln 1 in ln qP, so every D stays
    finite and I(q) exact."""
    rows, mask = p.rows, p.support
    out = q @ rows
    logout = np.log(np.where(out > 0, out, 1.0))
    d = np.sum(np.where(mask, rows * (np.log(np.where(mask, rows, 1.0)) - logout), 0.0), axis=1)
    lower = float(q @ d)
    unreached = not out.all() and (out[mask.any(axis=0)] == 0).any()
    return lower, math.inf if unreached else float(d.max()) - lower, d, out


def mutual_information(p: Dmc, q) -> float:
    """I(q, P) = sum_x q_x D(P_x || qP) in nats, with 0 log 0 terms treated as
    zero: the lower end of ``capacity``'s certificate, by the same float
    expression."""
    return _certificate(p, validate_distribution(q, p.input_size))[0]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def capacity(p: Dmc) -> tuple[float, np.ndarray]:
    """C(P) = max_q I(q, P), certified within ``CAPACITY_TOL`` below C, and
    an achieving input.

    Every input q certifies I(q) <= C <= max_x D(P_x || qP) (Gallager 1968,
    Thm 4.5.1).  One loop over input laws starts at the uniform input, which
    output-symmetric channels accept at once, and stops at the first iterate
    whose gap, the upper end less I(q) (``_certificate``), is at most the
    tolerance.  Each step is a Newton step d on the concave I over the free
    inputs, those with mass or with D(P_x || qP) > I(q), bordered by
    sum(d) = 0.  Its Hessian is -P diag(1/qP) P^T on the free rows; the
    system is solved by least squares in Jacobi-scaled variables with
    ``optimize._e0_newton_direction``'s relative ridge, 1e-12 there.  I is
    linear along the Hessian's null space, and the ridge sends such steps to
    the simplex's edge; the scaling keeps an input that alone reaches some
    output, whose diagonal entry is about P_xy / q_x, from swamping the
    other rows.  A massless input the step would push negative leaves the
    free set and the system is solved again.  An input with mass that alone
    reaches some output cannot reach the edge, where the gap is +inf; as q_x
    falls its D(P_x || qP) grows like -P_xy ln q_x, so it shrinks on that
    log scale, to q_x exp(t d_x / q_x).  A ratio test stops the other inputs
    at the edge, which the blocking input reaches exactly, and a mass below
    the smallest normal double becomes 0.  The step is halved until the gap
    falls.  When it does not, or when the scaled system is not finite, one
    Blahut-Arimoto step q_x <- q_x exp(D(P_x || qP)), normalized, is taken
    instead (Blahut and Arimoto 1972).  Raises ``ConvergenceError`` with the
    gap after ``CAPACITY_MAX_ITER`` steps.
    """
    lower, gap, d, out = _certificate(p, q := uniform_input(p.input_size))
    for steps in range(CAPACITY_MAX_ITER + 1):
        if gap <= CAPACITY_TOL:
            return lower, q
        if steps == CAPACITY_MAX_ITER:
            raise ConvergenceError("capacity iteration cap exceeded", gap)
        free, pos, trial = (q > 0) | (d > lower), out > 0, None
        while (k := int(free.sum())) >= 2:
            idx = np.flatnonzero(free)
            hess = (p.rows[idx][:, pos] / out[pos]) @ p.rows[idx][:, pos].T
            scale = 1.0 / np.sqrt(np.diag(hess))
            kkt = np.vstack([np.column_stack([hess * np.outer(scale, scale) + 1e-12 * np.eye(k),
                                              scale]), np.append(scale, 0.0)])
            if not np.isfinite(kkt).all():  # a qP_y or a free row's P_xy^2 / qP_y out of range
                break
            step = scale * np.linalg.lstsq(kkt, np.append(scale * d[idx], 0.0), rcond=None)[0][:k]
            if (blocked := (q[idx] == 0) & (step <= 0)).any():
                free[idx[blocked]] = False
                continue
            alone = (step < 0) & (p.support[idx] & (p.support[q > 0].sum(axis=0) == 1)).any(axis=1)
            edge = (step < 0) & ~alone
            t = float((ratios := -q[idx][edge] / step[edge]).min(initial=1.0))
            for _ in range(30):
                qn = q.copy()
                qn[idx] += t * step
                qn[idx[alone]] = q[idx[alone]] * np.exp(t * step[alone] / q[idx[alone]])
                qn[idx[edge][ratios <= t]] = 0.0  # the blocking inputs leave exactly
                qn[qn < np.finfo(float).tiny] = 0.0  # no subnormal mass
                qn /= qn.sum()
                if (trial := (qn, *_certificate(p, qn)))[2] < gap:
                    break
                trial, t = None, 0.5 * t
            break
        if trial is None:
            qn = q * np.exp(d - d.max())
            trial = (qn := qn / qn.sum(), *_certificate(p, qn))
        q, lower, gap, d, out = trial


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
    return all(np.allclose(s, s[0], atol=1e-12, rtol=0)
               for s in (np.sort(sub, axis=1), np.sort(sub, axis=0).T))


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
    classes: dict[int, list[int]] = {}  # first output -> its class
    for y in range(p.output_size):
        classes.setdefault(next((b for b in classes if close[y][b]), y), []).append(y)
    if all(_block_is_symmetric(p.rows[:, block]) for block in classes.values()):
        return [tuple(block) for block in classes.values()]
    return None


def is_output_symmetric(p: Dmc) -> bool:
    """Whether ``output_symmetry_partition`` finds a partition."""
    return output_symmetry_partition(p) is not None

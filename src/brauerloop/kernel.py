"""
Exact one-dimensional kernels of intensity matrices, and ground states.

The kernel vector w of an orbit-reduced matrix A is found by one exact
sparse solver. Orbit 0 is scaled to w[0] = 1 and the rest solves
B y = b with B = A[1:, 1:] and b = -A[1:, 0]; B is a principal minor of an
irreducible intensity matrix, hence nonsingular. Numeric-symbolic
iterative refinement (Wan, J. Symbolic Comput. 41, 2006) wraps a float64
BiCGSTAB: each step keeps as many bits of the float solution as its
measured residual allows and updates the residual exactly in int64, within
bounds asserted at every step. Continued fractions then recover the
rationals over a common denominator, and a candidate is accepted only when
A w = 0 holds exactly in integers; a solve that stops contracting or runs
out of steps raises `RefinementError`. The solver takes the matrix's entry
arrays as they are, re-sorted by row, and returns the accepted vector as
coprime integers.

The assembled ground state is additionally verified against the full
diagram basis before it is returned or cached. A `GroundState` is the length
and the weight of each orbit of `shared_orbits(length)`, in orbit order; the
cache payload adds each orbit's encoded representative and size, and
reading it back compares those as strings with the enumerated orbits.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .diagrams import ChordDiagram, representative_codes, shared_basis, shared_orbits
from .generators import transition_table
from .hamiltonian import (
    REDUCED,
    IntensityMatrix,
    annihilates,
    build_reduced,
    connectivity_check,
    product_is_zero,
)


class KernelDimensionError(ArithmeticError):
    """The kernel is not one-dimensional (rank differs from dimension - 1)."""


class DisconnectedMatrixError(ValueError):
    """The transition graph is not strongly connected."""


class MixedSignsError(ArithmeticError):
    """A kernel vector has entries of both signs (or a zero entry)."""


class CacheCorruptError(RuntimeError):
    """A cache file failed its checksum, holds another length or other orbits."""


class RefinementError(ArithmeticError):
    """Iterative refinement stopped contracting or ran out of steps."""


# BiCGSTAB stops at this relative residual; each refinement step then gains
# about -log2 of it, less a safety margin of 4 bits, in exact precision.
_TOLERANCE = 1e-12
_MAX_ITERATIONS = 1000
# A step gains at least 8 bits; the orbit matrices up to L = 14 need 1 to 4.
_MAX_STEPS = 64


def kernel_vector(matrix: IntensityMatrix) -> tuple[int, ...]:
    """Exact kernel vector of the matrix as coprime positive integers.

    The matrix must be an intensity matrix with a strongly connected
    transition graph: then its kernel is a line spanned by a positive vector,
    and every principal minor of order dimension - 1 is nonsingular. The
    vector is returned only after the exact integer check A w = 0 accepted
    it, divided by the gcd of its entries.
    """
    try:
        matrix.validate()
    except ArithmeticError as exc:
        raise KernelDimensionError(
            f"{exc}; a one-dimensional kernel is certain only for intensity matrices"
        ) from exc
    if not connectivity_check(matrix):
        raise DisconnectedMatrixError(
            "transition graph is not strongly connected; kernel may be degenerate"
        )
    if matrix.dimension == 1:
        return (1,)
    a = _Sparse.from_triplets(matrix.rows, matrix.cols, matrix.vals, matrix.dimension)
    return _refine(a, matrix.length)


@dataclass(frozen=True)
class _Sparse:
    """Square int64 matrix as entries sorted by row; every row holds one."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    starts: np.ndarray  # index of each row's first entry
    l1: int  # largest absolute row sum

    @classmethod
    def from_triplets(cls, rows, cols, vals, dimension: int) -> _Sparse:
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        counts = np.bincount(rows, minlength=dimension)
        # np.add.reduceat cannot express an empty segment.
        assert counts.all(), "sparse matrix has an empty row"
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        l1 = int(np.add.reduceat(np.abs(vals), starts).max())
        return cls(rows, cols, vals, starts, l1)

    def minor(self) -> tuple[_Sparse, np.ndarray]:
        """B = A[1:, 1:] and b = -A[1:, 0], the system for w[1:] / w[0]."""
        inner = (self.rows > 0) & (self.cols > 0)
        first = (self.rows > 0) & (self.cols == 0)
        b = np.zeros(len(self.starts) - 1, dtype=np.int64)
        b[self.rows[first] - 1] = -self.vals[first]
        minor = _Sparse.from_triplets(
            self.rows[inner] - 1, self.cols[inner] - 1, self.vals[inner], len(b)
        )
        return minor, b

    def diagonal(self) -> np.ndarray:
        on = self.rows == self.cols
        out = np.zeros(len(self.starts))
        out[self.rows[on]] = self.vals[on]
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Product with a float vector, or with an int64 one (exact within the callers' bounds)."""
        return np.add.reduceat(self.vals * x[self.cols], self.starts)


def _bicgstab(b_matrix: _Sparse, rhs: np.ndarray) -> np.ndarray:
    """Approximate solution of B y = rhs by BiCGSTAB (van der Vorst 1992).

    Right-preconditioned by the diagonal of B. Float64 throughout; the
    refinement around it measures the residual of the result and decides
    how many of its bits to keep, so stopping early only costs steps. The
    shadow residual is a fixed random vector: the usual choice, the
    right-hand side itself, breaks down on some sparse matrices (a directed
    cycle, for one).
    """
    diagonal = b_matrix.diagonal()
    x = np.zeros_like(rhs)
    r = rhs.copy()
    r_hat = np.random.default_rng(0).standard_normal(len(rhs))
    rho = alpha = omega = 1.0
    v = p = np.zeros_like(rhs)
    target = _TOLERANCE * np.linalg.norm(rhs)
    for _ in range(_MAX_ITERATIONS):
        rho_next = r_hat @ r
        p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
        p_hat = p / diagonal
        v = b_matrix @ p_hat
        alpha = rho_next / (r_hat @ v)
        s = r - alpha * v
        if not np.linalg.norm(s) > target:
            x += alpha * p_hat
            break
        s_hat = s / diagonal
        t = b_matrix @ s_hat
        omega = (t @ s) / (t @ t)
        x += alpha * p_hat + omega * s_hat
        r = s - omega * t
        rho = rho_next
        if not np.linalg.norm(r) > target:  # also stops on a breakdown to nan
            break
    return x


def _refine(a: _Sparse, length: int) -> tuple[int, ...]:
    """Exact solution of B y = b as coprime integers w = (den, *num), y = num / den.

    Numeric-symbolic iterative refinement (Wan 2006): each step solves for
    the current exact residual r in float64, keeps k bits of the solution
    as an integer vector d, and updates r <- 2**k r - B d and the
    accumulated numerators N <- 2**k N + d in exact arithmetic, so that
    B N = D b - r holds throughout with D = 2**(sum of k). After each step
    N / D is reconstructed as rationals over a common denominator, and the
    result is returned only once A w = 0 holds exactly.
    """
    b_matrix, r = a.minor()
    numer = np.zeros(len(r), dtype=object)
    denom = 1
    for step in range(1, _MAX_STEPS + 1):
        y = _bicgstab(b_matrix, r.astype(np.float64))
        r_norm = int(np.abs(r).max())
        error = np.abs(r - b_matrix @ y).max() / r_norm
        y_norm = float(np.abs(y).max())
        if not (np.isfinite(error) and np.isfinite(y_norm)):
            raise RefinementError(f"L = {length}, refinement step {step}: float solve failed")
        # Keep k bits: 2**k * error stays below 1/16, and the bounds that
        # `_update_residual` asserts hold for r and for d = round(2**k y).
        k = min(
            int(-np.log2(error)) - 4 if error > 0 else 62,
            62 - r_norm.bit_length(),
            62 - b_matrix.l1.bit_length() - math.frexp(y_norm)[1],
        )
        if k < 8:
            raise RefinementError(
                f"L = {length}, refinement step {step}: relative residual {error:.3g} "
                f"leaves {k} bits, fewer than 8"
            )
        d = np.rint(np.ldexp(y, k)).astype(np.int64)
        r = _update_residual(b_matrix, r, d, k)
        numer = (numer << k) + d.astype(object)
        denom <<= k
        if r.any():
            candidate = _reconstruct(numer, denom)
        else:
            candidate = (denom, list(numer))
        if candidate is not None:
            den, num = candidate
            g = math.gcd(den, *num)
            w = tuple(v // g for v in (den, *num))
            if product_is_zero(lambda x: a @ x, w, a.l1):
                return w
    raise RefinementError(
        f"L = {length}, refinement step {_MAX_STEPS}: no exact kernel vector "
        "within the step cap"
    )


def _update_residual(b_matrix: _Sparse, r: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
    """2**k r - B d, exact in int64 within the asserted bounds."""
    assert int(np.abs(r).max()) << k < 2**62, "2**k * r could overflow int64"
    assert b_matrix.l1 * int(np.abs(d).max()) < 2**62, "B d could overflow int64"
    return (r << k) - b_matrix @ d


def _reconstruct(numer: np.ndarray, denom: int) -> tuple[int, list[int]] | None:
    """Rationals num / den with a common den <= sqrt(denom) close to numer / denom.

    An entry is accepted when den * numer / denom lies within 1 / (2 bound)
    of an integer; otherwise den takes the lcm with the denominator of the
    entry's last continued-fraction convergent below the bound (Legendre).
    Returns None when den would exceed the bound or stops growing.
    """
    bound = 1 << (denom.bit_length() // 2)
    den = 1
    while True:
        num = (2 * den * numer + denom) // (2 * denom)
        off = np.flatnonzero(2 * bound * np.abs(den * numer - num * denom) >= denom)
        if not off.size:
            return den, num.tolist()
        q = _convergent_denominator(numer[off[0]], denom, bound)
        grown = den * q // math.gcd(den, q)
        if grown == den or grown > bound:
            return None
        den = grown


def _convergent_denominator(p: int, q: int, bound: int) -> int:
    """Denominator of the last continued-fraction convergent of p / q not above bound."""
    q_prev, q_cur = 1, 0
    while q:
        a, (p, q) = p // q, (q, p % q)
        q_next = a * q_cur + q_prev
        if q_next > bound:
            break
        q_prev, q_cur = q_cur, q_next
    return q_cur


def normalize_integer(values) -> tuple[int, ...]:
    """Scale a one-signed rational vector to coprime positive integers."""
    fracs = [Fraction(v) for v in values]
    if not fracs:
        raise ValueError("empty vector")
    denominator = math.lcm(*(f.denominator for f in fracs))
    return _coprime_positive([int(f * denominator) for f in fracs])


def _coprime_positive(ints: list[int]) -> tuple[int, ...]:
    """A one-signed integer vector divided by its gcd, with the sign made positive."""
    if not all(ints):
        raise MixedSignsError("kernel vector has a zero entry")
    if any(v < 0 for v in ints) and any(v > 0 for v in ints):
        raise MixedSignsError("kernel vector has entries of both signs")
    g = math.gcd(*ints) * (-1 if ints[0] < 0 else 1)
    return tuple(v // g for v in ints)


@dataclass(frozen=True)
class GroundState:
    """Exact per-orbit weights of the kernel vector, gcd-normalised.

    `weights[k]` is the weight of orbit k of `shared_orbits(length)`, which
    holds the representatives and sizes. The minimum weight being 1 is
    recorded, not assumed: normalisation divides by the gcd, so a
    counterexample would survive and be reportable.
    """

    length: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) != len(shared_orbits(self.length)):
            raise ValueError("ground state orbits do not match the enumerated orbits")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(shared_orbits(self.length).sizes.tolist())

    @property
    def total(self) -> int:
        return sum(map(operator.mul, self.sizes, self.weights))

    @property
    def min_is_one(self) -> bool:
        return min(self.weights) == 1

    def expand(self) -> tuple[int, ...]:
        """Per-diagram weights over the full basis, in basis order."""
        return tuple(map(self.weights.__getitem__, shared_orbits(self.length).orbit_of.tolist()))


# The payload's normalisation field; its generator field is always REDUCED.
_NORMALIZATION = "min-entry-one"


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict) -> str:
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


def serialize_groundstate(state: GroundState) -> str:
    payload = {
        "length": state.length,
        "normalization": _NORMALIZATION,
        "generator": REDUCED,
        "orbits": [
            {"representative": code, "size": size, "weight": str(weight)}
            for code, size, weight in zip(
                representative_codes(state.length), state.sizes, state.weights
            )
        ],
    }
    payload["checksum"] = _checksum(payload)
    return _canonical_json(payload) + "\n"


def deserialize_groundstate(text: str, length: int) -> GroundState:
    """Parse the cache payload of one length; anything else raises CacheCorruptError.

    The checksum is checked first, then the length, before any orbit is
    enumerated, then the constant fields, and last each orbit's
    representative and size against `shared_orbits(length)`. Only the first
    mismatching representative is decoded, so that a malformed one is named
    by what is wrong with it.
    """
    try:
        payload = json.loads(text)
        if payload.pop("checksum", None) != _checksum(payload):
            raise CacheCorruptError("ground-state cache failed its checksum")
        if type(payload["length"]) is not int or payload["length"] != length:
            raise CacheCorruptError(f"holds length {payload['length']!r}, not {length}")
        for key, value in (("generator", REDUCED), ("normalization", _NORMALIZATION)):
            if payload[key] != value:
                raise CacheCorruptError(f"{key} is {payload[key]!r}, not {value!r}")
        rows = payload["orbits"]
        weights = tuple(int(row["weight"]) for row in rows)
        found = [(row["representative"], row["size"]) for row in rows]
        expected = list(zip(representative_codes(length), shared_orbits(length).sizes.tolist()))
        for k, (got, want) in enumerate(zip(found, expected)):
            if got != want:
                ChordDiagram.decode(got[0])
                raise CacheCorruptError(
                    f"orbit {k} is {got[0]} of size {got[1]}, "
                    f"expected {want[0]} of size {want[1]}"
                )
        if len(found) != len(expected):
            raise CacheCorruptError(f"holds {len(found)} orbits, not {len(expected)}")
        return GroundState(length, weights)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise CacheCorruptError(
            f"malformed ground-state cache ({type(exc).__name__}: {exc})"
        ) from exc


def cache_path(cache_dir, length: int) -> Path:
    return Path(cache_dir) / f"groundstate-L{length:02d}.json"


# A file modified less than this long ago could be modified again within one
# tick of the file-system clock, size kept, without its stamp changing; such
# files are re-read on every load instead of memoised.
_SETTLED_NS = 2 * 10**9


def load_cached_groundstate(cache_dir, length: int) -> GroundState | None:
    """The cached state of one length, checked against its orbits; None when absent.

    A file is decoded and checked once for as long as its path, modification
    time, size and inode stay the same; later loads return the same state.
    """
    path = cache_path(cache_dir, length)
    try:
        st = path.stat()
    except (FileNotFoundError, NotADirectoryError):
        return None
    if time.time_ns() - st.st_mtime_ns < _SETTLED_NS:
        return _read_cached(path, length)
    stamp = (st.st_mtime_ns, st.st_size, st.st_ino)
    return _memoised_read(os.path.abspath(path), length, stamp)


@lru_cache(maxsize=16)
def _memoised_read(path: str, length: int, stamp: tuple[int, int, int]) -> GroundState:
    """`_read_cached`, memoised by the path and the file's stamp."""
    return _read_cached(Path(path), length)


def _read_cached(path: Path, length: int) -> GroundState:
    """`deserialize_groundstate` of one cache file, naming the file in any error."""
    try:
        return deserialize_groundstate(path.read_text(), length)
    except (CacheCorruptError, UnicodeDecodeError) as exc:
        raise CacheCorruptError(f"cache file {path.name}: {exc}") from exc


def save_cached_groundstate(cache_dir, state: GroundState) -> Path:
    """Write the cache file atomically: a temporary file beside it, then a rename.

    A reader sees either the old file or the complete new one, and a write
    that fails part-way leaves no partial file under the cache name.
    """
    path = cache_path(cache_dir, state.length)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        temporary.write_text(serialize_groundstate(state))
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)
    return path


def groundstate(length: int, *, cache_dir=None) -> GroundState:
    """Enumerate, assemble, solve, verify, and (optionally) cache one length.

    The kernel is solved on the orbit-reduced matrix and the returned state
    is re-verified against the full diagram basis in exact arithmetic. A
    valid cache entry short-circuits the whole pipeline.
    """
    if length < 2:
        raise ValueError(f"ground states need length >= 2, got {length}")
    if cache_dir is not None:
        cached = load_cached_groundstate(cache_dir, length)
        if cached is not None:
            return cached

    basis = shared_basis(length)
    orbits = shared_orbits(length)
    table = transition_table(basis)
    matrix = build_reduced(basis, orbits, table)
    state = GroundState(length, _coprime_positive(kernel_vector(matrix)))
    if not annihilates(basis, state.expand(), table):
        raise ArithmeticError("expanded ground state is not annihilated on the full basis")
    if cache_dir is not None:
        save_cached_groundstate(cache_dir, state)
    return state

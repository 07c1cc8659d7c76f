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
out of steps raises `RefinementError`. The solver copies A once into row
order, values cast to float64 once, so each product (B's too) sums a row's
terms by `np.add.reduceat`; it returns the vector as coprime integers > 0.

The assembled ground state is additionally verified against the full diagram
basis, from its per-orbit weights, before it is returned or cached. A cold
solve reads the generator rows once, as the proved stream of `site_pairs`:
it gathers the representatives' columns for the assembly and keeps the
site-1 rows for that check, so no (2L, N) transition table is stored. A
`GroundState` is the length and the weight of each orbit, in orbit order;
the cache payload adds each orbit's encoded representative and size. Both
are read from `orbit_summary(length)`, which is kept for every length, so a
state, its text and its checks need no N-row array once the orbits were
computed. A cache text is read back, with no JSON parser, only when it is
the text written for the state read from it, byte for byte; any other text
is refused as failing its checksum, holding another length, or leaving the
written text at a named byte. A load decodes a file again only when the
SHA-256 of its bytes has changed.
"""

from __future__ import annotations

__all__ = ["CacheCorruptError", "DisconnectedMatrixError", "GroundState", "KernelDimensionError",
           "MixedSignsError", "RefinementError", "groundstate", "kernel_vector"]

import hashlib
import math
import operator
import os
import random
import re
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .diagrams import (orbit_summary, representative_codes, require_rankable, shared_basis,
                       shared_orbits)
from .generators import site_pairs
from .hamiltonian import (
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
    """A cache file failed its checksum, holds another length or is not the written text."""


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
    it, divided by the gcd of its entries; a zero entry or entries of both
    signs raise `MixedSignsError`.
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
    return _refine(matrix)


def _minor(matrix: IntensityMatrix) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """A's entries as (cols, vals, floats, starts) and b = -A[1:, 0], the system for
    w[1:] / w[0] with B = A[1:, 1:] (`_minor_product`). A stable sort of the rows puts
    the entries in (row, column) order, floats holds the values as float64 and starts
    each row's first entry; every row must hold one, as the diagonal of an irreducible
    intensity matrix is nonzero."""
    rows, cols, vals = matrix.rows, matrix.cols, matrix.vals
    first = (rows > 0) & (cols == 0)
    b = np.zeros(matrix.dimension - 1, dtype=np.int64)
    b[rows[first] - 1] = -vals[first]
    order = np.argsort(rows, kind="stable")
    starts = np.flatnonzero(np.diff(rows[order], prepend=-1))
    assert len(starts) == matrix.dimension, "every row must hold an entry"
    vals = vals[order]
    return (cols[order], vals, vals.astype(np.float64), starts), b


def _product(entries: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """The matrix of `_minor`'s entries times a float vector, or an int64 one (exact
    within the callers' bounds): each row's products summed by `np.add.reduceat`."""
    cols, vals, floats, starts = entries
    return np.add.reduceat((floats if x.dtype.kind == "f" else vals) * x.take(cols), starts)


def _minor_product(entries: tuple[np.ndarray, ...], y: np.ndarray) -> np.ndarray:
    """B y for B = A[1:, 1:] from A's entries: A times (0, y), less its row 0."""
    return _product(entries, np.concatenate((np.zeros(1, y.dtype), y)))[1:]


def _bicgstab(b_matrix, diagonal: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Approximate solution of B y = rhs by BiCGSTAB (van der Vorst 1992).

    Right-preconditioned by the diagonal of B. Float64 throughout; the
    refinement around it measures the residual of the result and decides
    how many of its bits to keep, so stopping early only costs steps. The
    shadow residual is a fixed pseudo-random vector, uniform in [-1, 1),
    drawn from the standard library's seeded generator, which unlike
    `numpy.random` costs no import: the usual choice, the right-hand side
    itself, breaks down on some sparse matrices (a directed cycle, for one),
    and so does a regular (Weyl) sequence on some.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    words = np.frombuffer(random.Random(0).randbytes(8 * len(rhs)), dtype="<u8")
    r_hat = words * 2.0**-63 - 1.0
    rho = alpha = omega = 1.0
    v = p = np.zeros_like(rhs)
    target = _TOLERANCE * np.linalg.norm(rhs)
    for _ in range(_MAX_ITERATIONS):
        rho_next = r_hat @ r
        p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
        p_hat = p / diagonal
        v = _minor_product(b_matrix, p_hat)
        alpha = rho_next / (r_hat @ v)
        s = r - alpha * v
        if not np.linalg.norm(s) > target:
            x += alpha * p_hat
            break
        s_hat = s / diagonal
        t = _minor_product(b_matrix, s_hat)
        omega = (t @ s) / (t @ t)
        x += alpha * p_hat + omega * s_hat
        r = s - omega * t
        rho = rho_next
        if not np.linalg.norm(r) > target:  # also stops on a breakdown to nan
            break
    return x


def _refine(matrix: IntensityMatrix) -> tuple[int, ...]:
    """The kernel vector w = (den, *num) of the matrix, y = num / den solving B y = b.

    Numeric-symbolic iterative refinement (Wan 2006): each step solves for
    the current exact residual r in float64, keeps k bits of the solution
    as an integer vector d, and updates r <- 2**k r - B d and the
    accumulated numerators N <- 2**k N + d in exact arithmetic, so that
    B N = D b - r holds throughout with D = 2**(sum of k). After each step
    N / D is reconstructed as rationals over a common denominator, and the
    result is returned through `_coprime_positive` only once A w = 0 holds
    exactly.
    """
    length = matrix.length
    a, r = _minor(matrix)
    cols, vals, _, starts = a
    a_l1 = int(np.add.reduceat(np.abs(vals), starts).max())
    l1 = int(np.add.reduceat(np.abs(vals) * (cols > 0), starts)[1:].max())  # B's
    # One diagonal entry per column, in column order: each is nonzero (`_minor`).
    diagonal = matrix.vals[matrix.rows == matrix.cols][1:].astype(np.float64)
    numer = np.zeros(len(r), dtype=object)
    denom = 1
    for step in range(1, _MAX_STEPS + 1):
        y = _bicgstab(a, diagonal, r.astype(np.float64))
        r_norm = int(np.abs(r).max())
        error = np.abs(r - _minor_product(a, y)).max() / r_norm
        y_norm = float(np.abs(y).max())
        if not (np.isfinite(error) and np.isfinite(y_norm)):
            raise RefinementError(f"L = {length}, refinement step {step}: float solve failed")
        # Keep k bits: 2**k * error stays below 1/16, and the bounds that
        # `_update_residual` asserts hold for r and for d = round(2**k y).
        k = min(
            int(-np.log2(error)) - 4 if error > 0 else 62,
            62 - r_norm.bit_length(),
            62 - l1.bit_length() - math.frexp(y_norm)[1],
        )
        if k < 8:
            raise RefinementError(
                f"L = {length}, refinement step {step}: relative residual {error:.3g} "
                f"leaves {k} bits, fewer than 8"
            )
        d = np.rint(np.ldexp(y, k)).astype(np.int64)
        r = _update_residual(a, l1, r, d, k)
        numer = (numer << k) + d.astype(object)
        denom <<= k
        w = _reconstruct(numer, denom) if r.any() else [denom, *numer]
        if w is not None and product_is_zero(lambda x: _product(a, x), w, a_l1):
            return _coprime_positive(w)
    raise RefinementError(
        f"L = {length}, refinement step {_MAX_STEPS}: no exact kernel vector "
        "within the step cap"
    )


def _update_residual(b_matrix, l1: int, r: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
    """2**k r - B d, exact in int64 within the asserted bounds; l1 is max_i sum_j |B_ij|."""
    assert int(np.abs(r).max()) << k < 2**62, "2**k * r could overflow int64"
    assert l1 * int(np.abs(d).max()) < 2**62, "B d could overflow int64"
    return (r << k) - _minor_product(b_matrix, d)


def _reconstruct(numer: np.ndarray, denom: int) -> list[int] | None:
    """[den, *num]: rationals num / den with a common den <= sqrt(denom) close to numer / denom.

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
            return [den, *num.tolist()]
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

    `weights[k]` is the weight of orbit k of the length, and
    `orbit_summary(length)` holds the orbits' sizes and representatives. The
    minimum weight being 1 is not assumed: normalisation divides by the gcd,
    so a counterexample would survive in `weights`.
    """

    length: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) != len(orbit_summary(self.length)):
            raise ValueError("ground state orbits do not match the enumerated orbits")

    @property
    def sizes(self) -> tuple[int, ...]:
        return orbit_summary(self.length).sizes

    @property
    def total(self) -> int:
        return sum(map(operator.mul, self.sizes, self.weights))


# The payload's constant generator and normalisation fields.
_GENERATOR = "reduced"
_NORMALIZATION = "min-entry-one"


def _checksum(body: str) -> str:
    # A lone surrogate, in no written text, still hashes: its text is refused, not raised on.
    return hashlib.sha256(body.encode(errors="surrogatepass")).hexdigest()


def _header(length: int) -> str:
    """The canonical payload's fields after the checksum, up to the first orbit."""
    return (f'"generator":"{_GENERATOR}","length":{length},'
            f'"normalization":"{_NORMALIZATION}","orbits":[')


# A written file is this field, then the canonical payload after its "{".
_CHECKSUM_FIELD = re.compile(r'\{"checksum":"([0-9a-f]{64})",')
# The length that a text claims, read without enumerating anything.
_LENGTH_FIELD = re.compile(r'"length":\s*([^\s,}]*)')
# A canonical weight: the decimal digits of a positive integer, no leading zero.
_WEIGHT_FIELD = re.compile(r'"weight":"([1-9][0-9]*)"')


@lru_cache(maxsize=1)
def serialize_groundstate(state: GroundState) -> str:
    """The cache text, written directly: representative codes match [0-9.,]+ and
    weights are decimal digits, so no value needs JSON escaping. The last text is
    memoised: a state just checked against its file, or just saved, is not serialized
    again to be written out."""
    # The canonical JSON: keys in the fixed sorted order checksum, generator, length,
    # normalization, orbits and per orbit representative, size, weight; "," and ":".
    orbits = ",".join(f'{{"representative":"{code}","size":{size},"weight":"{weight}"}}'
                      for code, size, weight in zip(representative_codes(state.length),
                                                    state.sizes, state.weights))
    body = f"{_header(state.length)}{orbits}]}}"
    return '{"checksum":"' + _checksum("{" + body) + '",' + body + "\n"


def deserialize_groundstate(text: str, length: int) -> GroundState:
    """The state whose cache text of one length is exactly `text`; no JSON object tree.

    The header, length included, is matched after the checksum field before any
    orbit is enumerated. The weights are then read by a regular expression, and
    the state is kept only if `serialize_groundstate` gives back the text byte for
    byte, which implies the checksum, the representatives, the sizes and the
    canonical weights. Any other text raises CacheCorruptError, naming a failed
    checksum, else another length, else where the text leaves the one written for
    its weights: its header, its count of canonical weights, or the byte and orbit
    of the first difference after the checksum field.
    """
    field = _CHECKSUM_FIELD.match(text)
    head = _header(length)
    written = fault = None
    if field and text.startswith(head, field.end()):
        try:  # the list of weight strings is freed before the text is written again
            state = GroundState(length, tuple(map(int, _WEIGHT_FIELD.findall(text, field.end()))))
        except ValueError as exc:  # another orbit count, or a weight longer than int() reads
            read = len(_WEIGHT_FIELD.findall(text, field.end()))
            fault = (f"it holds {read} positive decimal weights for "
                     f"{len(orbit_summary(length))} orbits ({exc})")
        else:
            written = serialize_groundstate(state)
            if written == text:
                return state
    if not field or _checksum("{" + text[field.end():].removesuffix("\n")) != field[1]:
        raise CacheCorruptError("ground-state cache failed its checksum")
    start = field.end()
    claimed = _LENGTH_FIELD.search(text, start)
    if claimed and claimed[1] != str(length):
        raise CacheCorruptError(f"holds length {claimed[1]}, not {length}")
    if written is not None:
        at = start + len(os.path.commonprefix((written[start:], text[start:])))
        fault = f"byte {at} differs, in orbit {written.count('},{', 0, at)}"
    raise CacheCorruptError("ground-state cache is not the text written for its weights: "
                            + (fault or f"its header is not {head!r}"))


def cache_path(cache_dir, length: int) -> Path:
    return Path(cache_dir) / f"groundstate-L{length:02d}.json"


# The last state decoded for each length, with the SHA-256 of its file's bytes.
_loaded: dict[int, tuple[bytes, GroundState]] = {}


def load_cached_groundstate(cache_dir, length: int) -> GroundState | None:
    """The cached state of one length, checked against its orbits; None when absent.

    The file is read and hashed on every load, and decoded and checked only when
    its SHA-256 differs from that of the file last decoded for this length.
    """
    path = cache_path(cache_dir, length)
    try:
        data = path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        return None
    digest = hashlib.sha256(data).digest()
    held, state = _loaded.get(length, (None, None))
    if held != digest:
        try:
            state = deserialize_groundstate(data.decode(), length)
        except (CacheCorruptError, UnicodeDecodeError) as exc:
            raise CacheCorruptError(f"cache file {path.name}: {exc}") from exc
        _loaded[length] = digest, state
    return state


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
    require_rankable(length)
    if cache_dir is not None:
        cached = load_cached_groundstate(cache_dir, length)
        if cached is not None:
            return cached
    state = _solve(length)
    if cache_dir is not None:
        save_cached_groundstate(cache_dir, state)
    return state


def _solve(length: int) -> GroundState:
    """The verified ground state of one length, solved cold.

    The stream of `site_pairs` is exhausted, so all its proofs have passed,
    before either reads what was gathered from it. The gathered columns and
    the matrix are freed once read, so the full-basis check runs without
    them, and the site-1 rows on return, so the caller writes the cache text
    without any of them.
    """
    basis = shared_basis(length)
    orbits = shared_orbits(length)
    columns = np.empty((2 * length, len(orbits)), dtype=np.int32)
    for a, pair in enumerate(site_pairs(basis, orbits)):
        columns[a::length] = [row.take(orbits.representatives) for row in pair]
        if not a:
            rows = np.stack(pair)  # the site-1 rows, for the full-basis check
    matrix = build_reduced(basis, orbits, columns)
    del columns
    state = GroundState(length, kernel_vector(matrix))
    del matrix
    if not annihilates(basis, state.weights, rows, orbits):
        raise ArithmeticError("expanded ground state is not annihilated on the full basis")
    return state

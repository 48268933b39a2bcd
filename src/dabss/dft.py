"""The oracle's DFT rule: the coherent bin of sampled series by IEEE float operations alone.

Each term is a product of a float part of e^(w k) and a sample, and each sum is a halving tree
of pairwise sums over the terms zero-padded to a power of two, in error by at most
gamma_(log2 size) times the sum of |terms| (Higham, "Accuracy and Stability of Numerical
Algorithms", 2nd ed., 4.2). A bin over the input's bin is a Python complex quotient. No BLAS
order or FMA enters, so lists of floats and numpy arrays give the same bits on any host. The
module imports nothing of dabss, nor numpy: a caller whose series are arrays hands it numpy.
"""

from __future__ import annotations

import cmath
import math
from operator import add, mul

# Terms of a sum held at once: a power of two, so each chunk is a subtree of the sum's tree.
SUM_CHUNK = 2048


def bin_sums(pieces, w: complex, first: int, n: int, np) -> list:
    """Re and Im of sum_k e^(w k) s_k, k = first, ..., first + n - 1, of each series s of the
    `pieces` (k, *series), consecutive runs of samples from k = first on, lists of floats or
    (with `np`) arrays.

    e^(w k) comes from cmath.exp, or numpy's exp, which takes the same C library cos and sin.
    The tree is taken SUM_CHUNK terms at a time, then over the chunks' sums zero-padded to a
    power of two: the same tree, with no more than a chunk of terms held.
    """
    size = min(1 << (n - 1).bit_length(), SUM_CHUNK)
    partial = [_chunk_sums(chunk, w, size, np) for chunk in _chunks(pieces, size)]
    padded = [0.0] * ((1 << (len(partial) - 1).bit_length()) - len(partial))
    return _halved([v for sums in zip(*partial) for v in (*sums, *padded)], len(partial[0]))


def quotient(a: complex, b: complex) -> complex:
    """a / b by Python's complex division; over a 0 divisor, where Python raises, each part of a
    over +0.0 as IEEE division gives it (inf, or nan for 0 or nan), as numpy's division does."""
    if b:
        return a / b
    return complex(*(math.copysign(math.inf, v) if v == v and v else math.nan
                     for v in (a.real, a.imag)))


def _chunks(pieces, size: int):
    """The `pieces` (k, *series) regrouped into chunks of `size` samples, each a list of its
    pieces; the last chunk may be short."""
    chunk, filled = [], 0
    for k, *series in pieces:
        at, m = 0, len(series[0])
        while at < m:
            take = min(size - filled, m - at)
            chunk.append((k + at, *(s[at:at + take] for s in series)))
            at, filled = at + take, filled + take
            if filled == size:
                yield chunk
                chunk, filled = [], 0
    if chunk:
        yield chunk


def _chunk_sums(chunk, w: complex, size: int, np) -> list:
    """Re and Im of sum_k e^(w k) s_k over the pieces (k, *series) of one chunk, for each series:
    each a halving tree over its terms zero-padded to `size`, a power of two."""
    if np is None:
        parts = []
        for k, *series in chunk:
            basis = [cmath.exp(w * j) for j in range(k, k + len(series[0]))]
            parts.append((series, [z.real for z in basis], [z.imag for z in basis]))
        pad = [0.0] * (size - sum(len(real) for _, real, _ in parts))
        terms = []
        for i in range(len(chunk[0]) - 1):
            for p in (1, 2):
                for piece in parts:
                    terms += map(mul, piece[p], piece[0][i])
                terms += pad
        return _halved(terms, 2 * (len(chunk[0]) - 1))
    terms, at = np.zeros((len(chunk[0]) - 1, 2, size)), 0
    for k, *series in chunk:
        m = len(series[0])
        basis = np.exp(w * np.arange(k, k + m))
        terms[:, 0, at:at + m] = basis.real * series
        terms[:, 1, at:at + m] = basis.imag * series
        at += m
    while terms.shape[-1] > 1:
        terms = terms[..., 0::2] + terms[..., 1::2]
    return terms.ravel().tolist()


def _halved(terms: list, parts: int) -> list:
    """The halving-tree sums of `parts` runs of `terms`, all of one power-of-two length: each
    level adds neighbours pairwise."""
    while len(terms) > parts:
        terms = list(map(add, terms[0::2], terms[1::2]))
    return terms

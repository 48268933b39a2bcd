"""The oracle's DFT rule: the coherent bin of sampled series by IEEE float operations alone.

Each term is a product of a float part of e^(w k) and a sample, and each sum is a halving tree
of pairwise sums over the terms zero-padded to a power of two, in error by at most
gamma_(log2 size) times the sum of |terms| (Higham, "Accuracy and Stability of Numerical
Algorithms", 2nd ed., 4.2), taken a subtree at a time as the caller hands over its samples.
A bin over the input's bin is a Python complex quotient. No BLAS order or FMA enters, so lists
of floats and numpy arrays give the same bits on any host. The module imports nothing of
dabss, nor numpy: a caller whose series are arrays hands it numpy.
"""

from __future__ import annotations

import cmath
import math
from operator import add, mul


def bin_sums(pieces, w: complex, np) -> list:
    """Re and Im of sum_k e^(w k) s_k of each series s of the `pieces` (k, *series), consecutive
    runs of samples from their first k on, lists of floats or (with `np`) arrays.

    Each piece is one subtree: all but the last hold the same power of two of samples, which the
    first piece sets, and the last no more. So the pieces' sums, zero-padded to a power of two
    and halved, are the one tree over all the terms, with no more than a piece of terms held.
    e^(w k) comes from cmath.exp, or numpy's exp, which takes the same C library cos and sin.
    """
    partial, size = [], 0
    for k, *series in pieces:
        size = size or 1 << (len(series[0]) - 1).bit_length()
        partial.append(_piece_sums(k, series, w, size, np))
    padded = [0.0] * ((1 << (len(partial) - 1).bit_length()) - len(partial))
    return _halved([v for sums in zip(*partial) for v in (*sums, *padded)], len(partial[0]))


def quotient(a: complex, b: complex) -> complex:
    """a / b by Python's complex division; over a 0 divisor, where Python raises, each part of a
    over +0.0 as IEEE division gives it (inf, or nan for 0 or nan), as numpy's division does."""
    if b:
        return a / b
    return complex(*(math.copysign(math.inf, v) if v == v and v else math.nan
                     for v in (a.real, a.imag)))


def _piece_sums(k: int, series, w: complex, size: int, np) -> list:
    """Re and Im of sum_j e^(w j) s_j, j = k, k + 1, ..., of each of the `series`: each a
    halving tree over its terms zero-padded to `size`, a power of two."""
    m = len(series[0])
    if np is None:
        basis = [cmath.exp(w * j) for j in range(k, k + m)]
        parts = [z.real for z in basis], [z.imag for z in basis]
        pad, terms = [0.0] * (size - m), []
        for s in series:
            for part in parts:
                terms += map(mul, part, s)
                terms += pad
        return _halved(terms, 2 * len(series))
    basis, terms = np.exp(w * np.arange(k, k + m)), np.zeros((len(series), 2, size))
    terms[:, 0, :m] = basis.real * series
    terms[:, 1, :m] = basis.imag * series
    while terms.shape[-1] > 1:
        terms = terms[..., 0::2] + terms[..., 1::2]
    return terms.ravel().tolist()


def _halved(terms: list, parts: int) -> list:
    """The halving-tree sums of `parts` runs of `terms`, all of one power-of-two length: each
    level adds neighbours pairwise."""
    while len(terms) > parts:
        terms = list(map(add, terms[0::2], terms[1::2]))
    return terms

"""Kernels for truncated Taylor series of bounded order.

Coefficients are Taylor-normalized (derivative / i!) and stacked in arrays
of shape ``(order + 1, npoints)``, one column per base point, so that a
grid pass and an evaluation at a few anchor points run the same code. A
caller multiplies row i by i! to read a raw derivative.

`convolve_trunc` is the truncated Cauchy product, O(n^2) per point for n
coefficients, O(n d) when the second factor has degree d, and one multiply
when it is a constant.
`compose_series` substitutes a series into a primitive g through the
linear ODE of order r that g satisfies (see `primitives`):
the coefficients of g^(i)(w(s)), i < r, follow from each other by the
chain rule, which costs O(r n^2) per point. When g^(r) = g^(r-1), as for
every `Exp`, g^(r-1)(w(s)) follows a recurrence of its own whose rows past
the first are those of g^(r-2)(w(s)), which cuts the cost to
O((r-1) n^2).

Both kernels only read their arguments and write arrays their caller
gives them: a grid pass hands the same read-only coefficients of a
repeated subexpression to every node that uses it, and the arrays to write
from its own buffers (see `functions.Evaluation`), which never share
memory with an argument. Within the result each row is written in place;
the ODE's level contracts its first term straight into its row and scales
it there.
"""

from __future__ import annotations

import math

import numpy as np

MAX_ORDER = 16


def _degree(c: np.ndarray) -> int:
    """Index of the last row of ``c`` with a nonzero entry past row 0, or 0."""
    if c.ndim == 2 and c.strides[-1] == 0:
        # a broadcast view, such as a Constant's: one column holds them all
        rows = np.flatnonzero(c[1:, 0])
        return int(rows[-1]) + 1 if rows.size else 0
    return next((j for j in range(c.shape[0] - 1, 0, -1) if c[j].any()), 0)


def convolve_trunc(a: np.ndarray, b: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Truncated Cauchy product along axis 0, written to ``out``, an array
    of a's shape that shares no memory with a or b.

    ``out[i] = sum_j a[j] * b[i - j]``, each row as a single contraction
    in ascending j so results are bit-for-bit reproducible across runs.
    Only the terms with ``i - j`` up to b's degree d are contracted; the
    others are products with zero rows, so a factor of degree d costs
    O(n d) per point. A constant factor (d = 0) is one multiply, whose
    products equal the one-term contractions' but for the sign of a zero.
    """
    d = _degree(b)
    if d == 0:
        return np.multiply(a, b[0], out=out)
    for i in range(a.shape[0]):
        lo = max(i - d, 0)
        np.einsum("j...,j...->...", a[lo:i + 1], b[i - lo::-1], out=out[i])
    return out


def compose_series(outer: np.ndarray, inner: np.ndarray, ode,
                   empty) -> np.ndarray:
    """Taylor coefficients of g(w(s)) from the ODE that g satisfies; every
    array it writes, the result first, comes from ``empty(shape)``.

    ``ode`` holds ``(a_0, .., a_{r-1})`` with ``g^(r) = sum_i a_i g^(i)``;
    ``outer`` holds the Taylor coefficients g^(i)(w_0) / i! for i < r (rows
    past the order of ``inner`` may be left out); ``inner`` holds the
    coefficients w_j of w at the base point and is only read. With
    G_i = g^(i)(w(s)) and G_r = sum_i a_i G_i, the chain rule
    G_i' = G_{i+1} w' gives

        k G_{i,k} = sum_{j=1..k} j w_j G_{i+1,k-j},

    so the n coefficients of G_0 cost O(r n^2) per point, and O(r n) for a
    linear w. G_i is only needed to order n-1-i, and G_r is contracted
    term by term, skipping zero a_i, rather than stored.

    When g^(r) = g^(r-1), as for every `Exp`, and 2 <= r <= n, G_{r-1}
    obeys the recurrence on its own, k E_k = sum_j j w_j E_{k-j}, and its
    rows k >= 1 are those of G_{r-2}: the same sums over the same rows. So
    G_{r-2} is run on that recurrence from row 0 of G_{r-1}, and only its
    row 0 is replaced, at O((r-1) n^2) per point.
    """
    n, r = inner.shape[0], len(ode)
    # rows of w past its degree d only add zeros to a contraction
    d = _degree(inner)
    # g^(r) = g^(r-1): G_{r-1} runs on its own recurrence (see above)
    own = 2 <= r <= n and ode[-1] == 1.0 and not any(ode[:-1])
    levels = r - 1 if own else min(r, n)
    rest = inner.shape[1:]
    g = [empty(inner.shape)] + [empty((n - i,) + rest)
                                for i in range(1, levels)]
    # row j - 1 of dw is j * w_j, the coefficient of w' at order j - 1;
    # float factors, since an int array makes numpy cast on every multiply
    dw = np.multiply(inner[1:d + 1],
                     np.arange(1.0, d + 1).reshape((d,) + (1,) * len(rest)),
                     out=empty((d,) + rest))
    if own:
        # G_{r-2} runs G_{r-1}'s recurrence from G_{r-1}'s row 0; the row 0
        # set below replaces that one
        e = g[-1]
        e[0] = outer[r - 1] * math.factorial(r - 1)
        for k in range(1, len(e)):
            top = min(k, d)
            np.einsum("j...,j...->...", dw[:top], e[k - top:k][::-1],
                      out=e[k])
            e[k] /= k
    # the levels the loop below fills, each from the one above
    chained = levels - 1 if own else levels
    terms = [(q, a) for q, a in enumerate(ode) if a]
    for i, row in enumerate(g):
        row[0] = outer[i] * math.factorial(i)
    for k in range(1, n):
        top = min(k, d)
        dwk = dw[:top]
        for i in range(min(chained, n - k)):
            out = g[i][k]
            if i + 1 < r:
                np.einsum("j...,j...->...", dwk, g[i + 1][k - top:k][::-1],
                          out=out)
            elif not terms:
                out[...] = 0.0
            else:
                # the first term is contracted into the row and scaled
                # there: a zeroed row plus it differs only in a zero's sign
                q, a = terms[0]
                np.einsum("j...,j...->...", dwk, g[q][k - top:k][::-1],
                          out=out)
                out *= a
                for q, a in terms[1:]:
                    out += a * np.einsum("j...,j...->...", dwk,
                                         g[q][k - top:k][::-1])
            out /= k
    return g[0]

"""Highest-weight multiplicities as the kernel of the raising operators.

An oracle for ``gamma`` (and ``nu``, at the zero weight) that shares no
code with the package: it imports nothing from ``naryinv``, walks no Weyl
orbit and expands no series.  It works in the polynomial ring of the
form's coefficients ``a_e``, one per exponent vector ``e`` in
``Z^n_{>=0}`` with ``|e| = d``.

A monomial of degree ``k`` in the coefficients has exponent sums ``E``,
the coordinatewise sum of its factors' ``e``, and weight
``w[s] = E[s] - E[s + 1]`` (as in ``naryinv.forms.weight_from_moments``).
Raising operator ``s`` (``0 <= s < n - 1``) is the derivation

    ``a_e -> (e[s] + 1) * a_{e + eps_s - eps_{s+1}}``

which sends ``a_e`` to 0 when ``e[s + 1] = 0``; it maps the weight-``lam``
space to the weight ``lam + alpha_s`` space.  A highest-weight vector of
weight ``lam`` is a vector of that space killed by every raising
operator, so the multiplicity of ``V_lam`` in the degree-``k`` piece is
the dimension of the joint kernel: the number of weight-``lam`` monomials
minus the rank of the stacked operator matrix.

The rank is taken modulo the prime ``2**61 - 1``.  A rank mod ``p`` can
only be at most the rank over Q, so the kernel computed here can only be
too large, never too small.  On a disagreement with the package,
recompute with a second prime (``prime=``) before reporting it.
"""

from __future__ import annotations

PRIME = 2**61 - 1


def _exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """Every exponent vector of length ``n`` and total ``d``, ascending."""
    if n == 1:
        return [(d,)]
    return [(x, *rest) for x in range(d + 1) for rest in _exponents(n - 1, d - x)]


def _sums(n: int, d: int, k: int, lam: tuple[int, ...]) -> tuple[int, ...] | None:
    """The exponent sums ``E`` of the degree-``k`` monomials of weight
    ``lam``, or ``None`` when no integer ``E >= 0`` has that weight."""
    # E[s] = E[n - 1] + lam[s] + ... + lam[n - 2], and sum(E) = k * d
    tails = [sum(lam[s:]) for s in range(n - 1)] + [0]
    last, rest = divmod(k * d - sum(tails), n)
    if rest:
        return None
    sums = tuple(last + t for t in tails)
    return sums if min(sums) >= 0 else None


def _monomials(exponents, k: int, sums: tuple[int, ...], start: int = 0):
    """Sorted ``k``-tuples of positions in ``exponents``, each at least
    ``start``, whose exponent vectors add up to ``sums``."""
    if k == 0:
        if not any(sums):
            yield ()
        return
    for j in range(start, len(exponents)):
        e = exponents[j]
        left = tuple(a - b for a, b in zip(sums, e))
        if min(left) >= 0:
            for rest in _monomials(exponents, k - 1, left, j):
                yield (j, *rest)


def _rank(vectors, prime: int) -> int:
    """Rank mod ``prime`` of sparse vectors (dicts of nonzero entries),
    by elimination on each vector's largest key."""
    pivots: dict = {}
    for vector in vectors:
        v = {key: x % prime for key, x in vector.items() if x % prime}
        while v:
            lead = max(v)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(v[lead], -1, prime)
                pivots[lead] = {key: x * inverse % prime for key, x in v.items()}
                break
            factor = v[lead]
            for key, x in pivot.items():
                y = (v.get(key, 0) - factor * x) % prime
                if y:
                    v[key] = y
                else:
                    v.pop(key, None)
    return len(pivots)


def kernel_multiplicity(n: int, d: int, k: int, lam, prime: int = PRIME) -> int:
    """Multiplicity of the highest weight ``lam`` (length ``n - 1``) in the
    degree-``k`` coefficient polynomials of an n-ary form of degree ``d``:
    the dimension of the raising operators' joint kernel on the
    weight-``lam`` space, with the rank taken modulo ``prime``."""
    lam = tuple(lam)
    if n < 2 or d < 1 or k < 0 or len(lam) != n - 1 or min(lam) < 0:
        raise ValueError(f"bad arguments n={n}, d={d}, k={k}, lam={lam}")
    sums = _sums(n, d, k, lam)
    if sums is None:
        return 0
    exponents = _exponents(n, d)
    position = {e: j for j, e in enumerate(exponents)}
    sources = list(_monomials(exponents, k, sums))
    images = []
    for monomial in sources:
        image: dict = {}
        for s in range(n - 1):
            for at, j in enumerate(monomial):
                e = exponents[j]
                if e[s + 1] == 0:
                    continue
                raised = list(e)
                raised[s] += 1
                raised[s + 1] -= 1
                target = monomial[:at] + (position[tuple(raised)],) + monomial[at + 1:]
                key = (s, tuple(sorted(target)))
                image[key] = image.get(key, 0) + e[s] + 1
        images.append(image)
    return len(sources) - _rank(images, prime)

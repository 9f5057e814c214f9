"""Graded real model of the K-theory of a ring of integers, as functions of
the field's embeddings.

The model is the square-zero algebra R + M where M sits in degrees 1-2p,
p >= 1, with one generator per real embedding when p is odd and one per
conjugate pair of complex embeddings for every p. The coefficient functional
in degree -1 sums a generator's coefficient once per embedding (so pair
coefficients count twice); its kernel is where unit log-vectors land, and
dimension counts reproduce the classical ranks r1 + r2 - 1 in degree -1,
r2 in degrees 1-2p for even p, and r1 + r2 for odd p >= 3.
"""

from __future__ import annotations

from .errors import DomainError
from .nf import EmbeddingSet


def generator_labels(e: EmbeddingSet, degree: int) -> list[str]:
    """Generator labels in a degree 1-2p, for any p (other degrees have
    none): one per real embedding when p is odd, then one per pair."""
    if degree >= 0 or degree % 2 == 0:
        return []
    reals = e.real_indices if (1 - degree) // 2 % 2 == 1 else ()
    return ([f"x(s{i})_{degree}" for i in reals]
            + [f"x(s{i}s{e.conjugate_index(i)})_{degree}" for i in e.pair_representatives])


def rank_in_degree(e: EmbeddingSet, degree: int) -> int:
    """Real rank of the model in a degree: the dimension of the kernel of
    the coefficient functional there."""
    if degree == 0:
        return 1
    if degree > 0 or degree % 2 == 0:
        raise DomainError(f"degree {degree} is not of the form 1-2p")
    dim = len(generator_labels(e, degree))
    return dim - 1 if degree == -1 else dim


def build_model(e: EmbeddingSet, max_p: int) -> dict:
    """The rank table `kranks` prints: the signature, the degree-zero rank
    and, for p = 1..max_p, degree 1-2p with its generators and rank."""
    if max_p < 1:
        raise DomainError("max_p must be at least 1")
    rows = []
    for d in range(-1, -2 * max_p, -2):
        labels = generator_labels(e, d)
        rows.append({"degree": d, "dim_ambient": len(labels),
                     "rank": rank_in_degree(e, d), "generators": labels})
    return {"signature": list(e.signature), "degree_zero_rank": 1, "rows": rows}

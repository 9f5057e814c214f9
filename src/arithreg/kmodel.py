"""Graded real model of the K-theory of a ring of integers.

The model is the square-zero algebra R + M where M sits in degrees 1-2p,
p >= 1, with one generator per real embedding when p is odd and one per
conjugate pair of complex embeddings for every p. The coefficient functional
in degree -1 sums a generator's coefficient once per embedding (so pair
coefficients count twice); its kernel is where unit log-vectors land, and
dimension counts reproduce the classical ranks r1 + r2 - 1 in degree -1,
r2 in degrees 1-2p for even p, and r1 + r2 for odd p >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .nf import EmbeddingSet


@dataclass(frozen=True)
class GradedKAlgebra:
    embedding_set: EmbeddingSet
    max_p: int

    def __post_init__(self):
        if self.max_p < 1:
            raise DomainError("max_p must be at least 1")

    @property
    def signature(self) -> tuple[int, int]:
        return self.embedding_set.signature

    def generator_labels(self, degree: int) -> list[str]:
        """Generator labels in a degree 1-2p, for any p (other degrees have
        none): one per real embedding when p is odd, then one per pair."""
        if degree >= 0 or degree % 2 == 0:
            return []
        e = self.embedding_set
        reals = e.real_indices if (1 - degree) // 2 % 2 == 1 else ()
        return ([f"x(s{i})_{degree}" for i in reals]
                + [f"x(s{i}s{e.conjugate_index(i)})_{degree}" for i in e.pair_representatives])

    def dim_m_prime(self, degree: int) -> int:
        return len(self.generator_labels(degree))


def build_model(e: EmbeddingSet, max_p: int) -> GradedKAlgebra:
    """Assemble the graded model of the field of e; degrees beyond max_p
    stay available lazily."""
    return GradedKAlgebra(e, max_p)


def rank_in_degree(model: GradedKAlgebra, degree: int) -> int:
    """Real rank of the model in a degree: the dimension of the kernel of
    the coefficient functional there."""
    if degree == 0:
        return 1
    if degree > 0 or degree % 2 == 0:
        raise DomainError(f"degree {degree} is not of the form 1-2p")
    dim = model.dim_m_prime(degree)
    return dim - 1 if degree == -1 else dim


def dimension_table(model: GradedKAlgebra) -> dict:
    """Degrees, generator labels and ranks for display and JSON dumps."""
    rows = []
    for p in range(1, model.max_p + 1):
        d = 1 - 2 * p
        rows.append({
            "degree": d,
            "dim_ambient": model.dim_m_prime(d),
            "rank": rank_in_degree(model, d),
            "generators": model.generator_labels(d),
        })
    return {
        "signature": list(model.signature),
        "degree_zero_rank": 1,
        "rows": rows,
    }

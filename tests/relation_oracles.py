"""The one-search relation engine, a reference that the tests compare
arithreg.relations.relation_lattice against.

It finds every relation among k units at once: one LLL search on their
scaled logarithmic embedding, its rows proved exactly, then the torsion
order and completeness proved, with the library's own proofs. Like the
library it runs on doubles first and at the working precision when a proof
fails there. Unlike it, it keeps a search vector only when its exponents lie
within EXPONENT_BOUND, so a relation with a larger exponent leaves the
lattice incomplete and the rank proof refuses it; its cost grows quickly with
k, which is why the library keeps a proved unit basis instead.
"""

from mpmath import mp

import arithreg.relations as R
from arithreg.errors import DomainError, PrecisionError
from arithreg.intmat import lll
from arithreg.nf import embeddings
from arithreg.precision import GUARD_DIGITS

EXPONENT_BOUND = 64


def one_search_lattice(elems, precision=50, search=None):
    """(HNF basis, torsion order) of the relation lattice of the units elems,
    from one search on the lattice search(logs, args, digits) builds
    (relations._search_lattice by default); DomainError for a non-unit,
    PrecisionError when a proof fails in both passes."""
    search = search or R._search_lattice
    for g in elems:
        if not g.is_unit():
            raise DomainError(f"generator {g} is not a unit")
    e = embeddings(elems[0].field, precision)
    columns = R._float_columns(elems, e)
    if columns is not None:
        try:
            return _one_search(elems, columns, R.FLOAT_DIGITS, e, R._double_log_moduli, search)
        except PrecisionError:
            pass
    with mp.workdps(e.working_dps):
        return _one_search(elems, R._embedding_columns(elems, e), precision - GUARD_DIGITS, e,
                           R._mp_log_moduli, search)


def _one_search(elems, columns, digits, e, log_moduli, search):
    logs, args = columns
    k = len(elems)
    threshold = 10 ** (digits // 2)
    candidates = [v[:k] for v in lll(search(logs, args, digits))
                  if any(v[:k]) and max(abs(r) for r in v[k:]) <= threshold
                  and max(abs(x) for x in v[:k]) <= EXPONENT_BOUND]
    basis = R._verified_basis(elems, candidates)
    torsion = R._certify_torsion(elems, basis)
    R._prove_rank(elems, basis, logs, e, log_moduli)
    return basis, torsion

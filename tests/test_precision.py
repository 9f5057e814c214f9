import pytest
from mpmath import mp, mpc

import arithreg.dilog
import arithreg.precision
from arithreg.dilog import bloch_wigner, li2
from arithreg.errors import DomainError
from arithreg.nf import embeddings, parse_field
from arithreg.precision import MIN_DIGITS, working_dps, working_prec


def test_the_guard_is_added_in_one_place(monkeypatch):
    """Embeddings and the dilogarithm both take their working precision from
    precision.working_dps, so changing the guard there changes it for both."""
    monkeypatch.setattr(arithreg.precision, "GUARD_DIGITS", 20)
    K = parse_field({"poly": [13, 0, 5, 0, 1]})  # a field no other test embeds
    try:
        e = embeddings(K, 30)
        assert e.working_dps == 50
        with mp.workdps(50):
            assert e.working_prec == mp.prec
    finally:
        embeddings.cache_clear()  # drop the set built with the patched guard

    seen = []
    real = arithreg.dilog._li2_principal

    def recording(z):
        seen.append(mp.dps)
        return real(z)

    monkeypatch.setattr(arithreg.dilog, "_li2_principal", recording)
    li2(mpc("0.3", "0.4"), 30)
    assert seen == [50]


@pytest.mark.parametrize("digits", [MIN_DIGITS, 30, 50, 100, 200, 1000])
def test_working_prec_is_the_working_dps_in_bits(digits):
    """working_prec, which an EmbeddingSet caches for evaluate and
    root_radii, is the mp.prec that mp.workdps(working_dps) sets."""
    K = parse_field({"poly": [1, -1, 0, 1]})
    with mp.workdps(working_dps(digits)):
        assert working_prec(digits) == embeddings(K, digits).working_prec == mp.prec


def test_one_message_below_the_minimum():
    z = mpc("0.3", "0.4")
    K = parse_field({"poly": [1, -1, 0, 1]})
    messages = set()
    for call in (lambda: li2(z, 8), lambda: bloch_wigner(z, 8), lambda: embeddings(K, 8)):
        with pytest.raises(DomainError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {f"precision must be at least {MIN_DIGITS} digits, got 8"}

import pytest

from traceforms import quadratic
from traceforms.oracles import ORACLE_PLACE_CAP, hilbert_symbol_oracle
from traceforms.quadratic import INF, QuadraticError, hilbert_symbol

from limited_child import run_limited


def test_oracle_real_place_signs():
    assert hilbert_symbol_oracle(-1, -1, INF) == -1
    assert hilbert_symbol_oracle(-1, 2, INF) == 1
    assert hilbert_symbol_oracle(3, 5, INF) == 1
    assert hilbert_symbol_oracle(-3, -5, INF) == -1


def test_oracle_squares_are_universal():
    for v in (INF, 2, 3, 5, 7):
        for a in (-10, -3, -1, 2, 7, 15):
            assert hilbert_symbol_oracle(a, 1, v) == 1
            assert hilbert_symbol_oracle(a, 4, v) == 1
            assert hilbert_symbol_oracle(9, a, v) == 1


def test_oracle_symmetry():
    for v in (2, 3, 5, INF):
        for a in (-6, -2, 3, 10):
            for b in (-5, 2, 6):
                assert hilbert_symbol_oracle(a, b, v) == \
                    hilbert_symbol_oracle(b, a, v)


def test_oracle_known_2adic_values():
    assert hilbert_symbol_oracle(2, 2, 2) == 1    # 2x²+2y²=z² has (1,1,2)
    assert hilbert_symbol_oracle(-1, -1, 2) == -1
    assert hilbert_symbol_oracle(2, 3, 2) == -1
    assert hilbert_symbol_oracle(2, 7, 2) == 1    # z²-2x²=7 at (3,1)
    assert hilbert_symbol_oracle(5, 3, 2) == 1    # 5 ≡ 1 mod 4
    assert hilbert_symbol_oracle(3, 7, 2) == -1   # u≡v≡3 mod 4 case


def test_oracle_odd_prime_unit_and_ramified_cases():
    assert hilbert_symbol_oracle(3, 3, 3) == -1
    assert hilbert_symbol_oracle(3, -3, 3) == 1   # always: (a,-a)=1
    assert hilbert_symbol_oracle(5, 7, 3) == 1    # two units at p=3
    assert hilbert_symbol_oracle(3, 7, 3) == 1    # 7 is a square mod 3
    assert hilbert_symbol_oracle(3, 5, 3) == -1   # 5 is not


def test_oracle_rejects_bad_place():
    with pytest.raises(QuadraticError):
        hilbert_symbol_oracle(2, 3, 4)
    with pytest.raises(QuadraticError):
        hilbert_symbol_oracle(0, 3, 2)


def test_oracle_place_cap_admits_the_battery_places(monkeypatch):
    # the verify battery compares the two symbols at every prime up to 47
    assert ORACLE_PLACE_CAP >= 47
    for a, b in ((3, 5), (-1, -1), (2, 47), (-47, 5)):
        assert hilbert_symbol_oracle(a, b, 47) == hilbert_symbol(a, b, 47)

    # the cap is checked before a is factored, which took 1.3 s here
    def no_factoring(n):
        raise AssertionError(f"factored {n} before checking the cap")

    monkeypatch.setattr(quadratic, "factorint", no_factoring)
    with pytest.raises(QuadraticError,
                       match=f"place 53 exceeds ORACLE_PLACE_CAP = {ORACLE_PLACE_CAP}"):
        hilbert_symbol_oracle((2**61 - 1) * (2**67 - 1) * 1_000_003, 5, 53)


def test_oracle_refuses_a_large_place_before_allocating():
    # at p = 1,000,003 the oracle would tabulate the squares mod p^3, about
    # 10^18 residues; under the child's address-space limit a missing bound
    # ends in MemoryError instead of the cap's error
    code = ("from traceforms.oracles import hilbert_symbol_oracle\n"
            "hilbert_symbol_oracle(3, 5, 1_000_003)\n")
    proc, elapsed = run_limited(["-c", code], timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.rstrip().endswith(
        "QuadraticError: place 1000003 exceeds "
        f"ORACLE_PLACE_CAP = {ORACLE_PLACE_CAP}"), proc.stderr
    assert elapsed < 10, elapsed

"""Acceptance gate: every headline identity/inequality at its stated tolerance.

Each test runs one named verification suite, prints a one-line pass/fail
summary, and asserts that every check inside the suite passed.  Run with
``pytest -s tests/test_acceptance.py`` to see the lines as they happen.
"""

import time

import pytest

from cayleynorms import verify


def _run(criterion: str, suite_name: str, budget_s: float) -> None:
    t0 = time.perf_counter()
    checks = verify.run_suite(suite_name)
    elapsed = time.perf_counter() - t0
    failed = [c for c in checks if not c.passed]
    status = "pass" if not failed else "FAIL"
    print(f"[{status}] {criterion}: {len(checks) - len(failed)}/{len(checks)} "
          f"checks in {elapsed:.1f}s (budget {budget_s:.0f}s)")
    for c in failed:
        print(f"    FAILED {c.name}: {c.detail}")
    assert not failed, f"{criterion}: {[c.name for c in failed]}"
    assert elapsed < budget_s, f"{criterion} exceeded its runtime budget"


def test_criterion_1_cut_spectral_sandwich():
    # cycles 4..20, completes 4..16, Paley 13/17, two D4 Cayley graphs,
    # Petersen: exact cut and spectral on the centered matrix,
    # cut <= n||A|| <= 8 cut with margin >= 0 at 1e-9 relative
    _run("criterion 1 (transitive sandwich)", "sandwich", 60.0)


def test_criterion_2_grothendieck_equality():
    # ascent with rank 16 >= 8, 8 restarts, 500 sweeps reaches
    # (1 - 1e-6) n||A||; with the upper bound n||A|| this pins the
    # Grothendieck norm of every centered transitive matrix
    _run("criterion 2 (Grothendieck equality)", "grothendieck", 120.0)


def test_criterion_3_factor_four_tightness():
    # [[1,-1],[-1,1]]: cut 1, infinity-to-one 4, spectral 2, bracket [4,4];
    # matches the order-2 Cayley matrix with n||A|| = 4
    _run("criterion 3 (factor-4 tightness)", "factor4", 30.0)


def test_factor4_bracket_is_ordered():
    # the suite's bracket is grothendieck_bounds', so its upper end is the
    # certified (inflated) 2 ||A|| and never falls below the ascent value
    (check,) = [c for c in verify.suite_factor4() if c.name == "factor4:bracket"]
    lower, upper = map(float, check.detail.removeprefix("bracket=[").rstrip("]").split(", "))
    assert lower <= upper


def test_criterion_4_fourier_suite():
    # Z12, Z2xZ2, D4, D5 with 50 random complex functions each:
    # Plancherel 1e-10, inversion 1e-12, convolution 1e-10,
    # spectral-via-irreps vs dense 1e-8, Schur closed form 1e-10
    _run("criterion 4 (fourier suite)", "fourier", 30.0)


def test_criterion_5_witness_suite():
    # svd witness equals ||f|| to 1e-8 on D4 and S3 (S3 table shipped as
    # data, ingested through parse_irreps); translate witness from the top
    # singular pair equals ||f|| to 1e-10
    _run("criterion 5 (witness suite)", "witness", 30.0)


def test_criterion_6_abelian_character_norm():
    # on Z_n (n <= 24), 50 random complex functions each:
    # character norm equals the dense spectral norm to 1e-10
    _run("criterion 6 (abelian equality)", "abelian", 60.0)


def test_criterion_7_counterexample_construction():
    # seeds 0..4: exactly 8-regular, eigenvalue -4 with residual <= 1e-12,
    # ratio n||A - (d/n)J|| / cut recorded (exact cut at n = 24)
    _run("criterion 7 (counterexample graph)", "example1", 600.0)


def test_criterion_8_mixing_lemma():
    # Paley-13 at lambda = lambda_2: exhaustive all-pairs discrepancy check
    _run("criterion 8 (mixing lemma)", "mixing", 60.0)


def test_criterion_9_eigenvalue_bound():
    # every Cayley graph of criterion 1: lambda <= 8 epsilon d with exact
    # epsilon; the constant 8 is never violated
    _run("criterion 9 (lambda <= 8 eps d)", "theorem3", 120.0)


def test_criterion_10_random_sign_matrices():
    # 100 seeded +-1 matrices of size 8x8: ascent(rank 16) is never below
    # the exact sign optimum, and never above 1.783 times it
    _run("criterion 10 (Grothendieck inequality, empirical)", "random-sign", 120.0)

"""Acceptance suite: one test per verification criterion, in order.

Each test prints the criterion's full check-by-check report (visible with -s,
or automatically for failures) and asserts the aggregate pass flag, so the
suite shows exactly one pass/fail line per criterion.

The critical-regime half of the limit-reproduction criterion is expected to
fail: at n = 1e6 the quantity (n / ln n) * variance is still 6.7% (jump-free)
and 8.5% (jump model) away from its limit because the approach is O(1/ln n),
and the stated 5% window is only reached near n = 1e8. The check is kept at
its stated operating point and tolerance rather than loosened; see the README
section on the critical-regime limit check.
"""

from youbounds import harness, verify


def _workers() -> int:
    return harness.resolve_workers(None, verify.DEFAULT_WORKERS)


def _run(result: verify.CriterionResult) -> None:
    print(result.render())
    failing = [c.text for c in result.checks if not c.ok]
    assert result.passed, (
        f"criterion {result.label} has {len(failing)} failing check(s): "
        + "; ".join(failing))


def test_criterion_1_closed_form_consistency():
    _run(verify.criterion_1())


def test_criterion_2_brute_force_tree_oracles():
    _run(verify.criterion_2())


def test_criterion_3_monte_carlo_vs_closed_forms():
    _run(verify.criterion_3(_workers()))


def test_criterion_4_fast_regime_limits():
    _run(verify.criterion_4_fast())


def test_criterion_4_critical_regime_limits():
    # Expected to fail on a correct build; see the module docstring.
    _run(verify.criterion_4_critical())


def test_criterion_4c_critical_second_order():
    _run(verify.criterion_4_second_order())


def test_criterion_5_bound_curve_rates():
    _run(verify.criterion_5())


def test_criterion_6_sandwich_runs():
    _run(verify.criterion_6(_workers()))


def test_criterion_7_penalty_and_lower_constant():
    _run(verify.criterion_7())


def test_criterion_8_determinism_across_workers():
    _run(verify.criterion_8())


def test_variance_spread_order_stability():
    _run(verify.vv_order_check(_workers()))

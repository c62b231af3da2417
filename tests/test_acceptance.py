"""Acceptance battery: every closed-form claim at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or through
the `fqsvt verify` command, which runs the same battery).
"""


from fqsvt.verify import CRITERIA


def _run(number):
    result = CRITERIA[number]()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.ident}: {result.title} -- {result.detail}")
    assert result.passed, f"criterion {result.ident} failed: {result.detail}"
    return result


def test_criterion_01_qsp_round_trip():
    _run(1)


def test_criterion_02_comprehensive_blocks():
    _run(2)


def test_criterion_03_garbage_state():
    _run(3)


def test_criterion_04_two_block_exactness():
    _run(4)


def test_criterion_05_projection_error_budget():
    _run(5)


def test_criterion_06_channel_accuracy_and_scaling():
    _run(6)


def test_criterion_07_walk_bound_and_separation():
    # The walk's estimates are pinned: any drift in the sampling is a change.
    assert _run(7).detail == (
        "L=2: success 1.0000 (bound 1.0003); L=4: success 0.5084 (bound 0.5150); "
        "L=8: success 0.2547 (bound 0.2631); L=16: success 0.1198 (bound 0.1347); "
        "cost growth x8.3 vs query growth x4"
    )


def test_criterion_08_amplified_depth():
    _run(8)


def test_criterion_09_adiabatic_leakage_slope():
    assert _run(9).detail == "log-log slope -0.992 (target -1.0 +- 0.2)"


def test_criterion_10_transmon_bands():
    _run(10)

"""Every case of `cli_cases`, run in process through `cli.main`."""

import pytest

from cli_cases import CASES, problems, run_in_process


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_cli_case(case, tmp_path):
    code, out, err = run_in_process(case, tmp_path)
    assert problems(case, tmp_path, code, out, err) == []


def test_cli_cases_cover_the_contract():
    # a case that needs only a config, an argv and the outputs is a row; a case that
    # patches the program stays in tests/test_harness.py, as does exit 4, which only
    # fault injection reaches
    assert len({case.id for case in CASES}) == len(CASES)
    assert {case.argv[0] for case in CASES} == {"run", "sweep-v", "compare", "calibrate",
                                                "verify-bounds"}
    assert {case.code for case in CASES} == {0, 2, 3}

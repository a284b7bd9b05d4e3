import pytest

from floqimp import checks


@pytest.mark.parametrize("suite", list(checks.SUITES))
def test_suite_rows_pass(suite):
    rows = checks.SUITES[suite]()
    assert rows
    assert [row for row in rows if not row[3]] == []

"""Argument validation of the perf runner (benchmarks/run_perf.py)."""

import pytest

from benchmarks.run_perf import main


@pytest.mark.parametrize("depths", ["two", "2,x", "0", "-1", "2,,-4", ","])
def test_bad_depths_is_usage_error(depths, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--depths", depths])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--depths" in err
    assert "expected comma-separated positive integers" in err
    assert "Traceback" not in err

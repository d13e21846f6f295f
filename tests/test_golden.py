"""Every output file of the reference runs against its digest in tests/golden.json.

The digests were recorded before the channel drew its normals in blocks,
but the kick run's: at a step size of 1e4 its descent follows every rounding
of the gradient, and it was rewritten when the step took its gradient in
closed form.  A change that means to move outputs rewrites them with
``benchmarks/golden.py --update``.
"""

import json

import pytest

from benchmarks.golden import GOLDEN, RUNS, differences, digest_run

RECORDED = json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_run():
    assert list(RECORDED["runs"]) == list(RUNS)


@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_the_golden_digests(name, tmp_path):
    got = digest_run(name, tmp_path)
    lines = differences(name, RECORDED["runs"][name], got, RECORDED["numpy"])
    assert not lines, "\n".join(lines)

import pytest

from stabgauge import pauli, syzygy, torus

# the library's memoized primitives (cli.build_parser aside, which holds no result)
MEMOS = (pauli._verify, torus._rank, syzygy._bounded_kernel, syzygy._certify)


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test on empty memos, so none passes on memos another test filled."""
    for memo in MEMOS:
        memo.cache_clear()

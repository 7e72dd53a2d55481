import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the reference_* oracles

ACCEPTANCE_RESULTS = []


def record_criterion(number: int, title: str, status: str, detail: str = ""):
    ACCEPTANCE_RESULTS.append((number, title, status, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for number, title, status, detail in sorted(ACCEPTANCE_RESULTS):
        line = f"criterion {number:>2} [{status:^4}] {title}"
        if detail:
            line += f"  -- {detail}"
        tr.write_line(line)


def data_dir() -> Path:
    return Path(os.environ.get("NLTS_DATA_DIR", "data"))


def dataset_path(name: str):
    """Path of a benchmark dataset file if the user fetched it, else None."""
    from nlts.datasets import packaged_spec

    spec = packaged_spec(name).resolve(data_dir())
    p = Path(spec.source_path)
    return p if p.exists() else None


def require_dataset(name: str):
    p = dataset_path(name)
    if p is None:
        pytest.skip(f"dataset {name} not present (see README; set NLTS_DATA_DIR)")
    return p


@pytest.fixture
def tmp_text_file(tmp_path):
    def write(content, name="data.txt"):
        p = tmp_path / name
        p.write_text(content, encoding="utf-8")
        return p

    return write

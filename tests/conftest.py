import hypothesis
import pytest

from cptforge.network import CountTable, GraphSpec
from cptforge.verify import (
    BLOOD_MEDICINE_COUNTS,
    blood_medicine_graph,
    blood_medicine_joint,
    blood_medicine_table,
)

hypothesis.settings.register_profile(
    "det", derandomize=True, max_examples=80, deadline=None
)
hypothesis.settings.load_profile("det")


@pytest.fixture
def golden_joint():
    return blood_medicine_joint()


@pytest.fixture
def golden_graph() -> GraphSpec:
    return blood_medicine_graph()


@pytest.fixture
def golden_table() -> CountTable:
    return blood_medicine_table()


@pytest.fixture
def golden_data_csv(tmp_path):
    """The worked example's counts in long CSV format."""
    lines = ["Blood,Medicine,count"]
    for k, count in enumerate(BLOOD_MEDICINE_COUNTS):
        lines.append(f"{k // 3},{k % 3},{count}")
    path = tmp_path / "blood_medicine.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def golden_graph_file(tmp_path):
    path = tmp_path / "blood_medicine_graph.txt"
    path.write_text(
        "node Blood 2\nnode Medicine 3\nedge Blood Medicine\n", encoding="utf-8"
    )
    return path

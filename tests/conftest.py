import pytest
from hypothesis import settings

from planarcut.generators import grid_graph, theta_graph, triangle_graph

# the same examples on every run, no wall-clock deadline on a loaded
# machine, and no example database left behind
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from _acceptance_log import LINES
    except ImportError:
        return
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def tri():
    """Triangle with weights 1, 2, 3 on edges (0,1), (1,2), (2,0)."""
    return triangle_graph(1, 2, 3)


@pytest.fixture
def grid3():
    """3x3 unit grid: 9 vertices, 12 edges, 5 faces."""
    return grid_graph(3, 3)


@pytest.fixture
def theta():
    """Two hubs joined by three 2-edge paths, middle path heavier."""
    return theta_graph(1, 2)

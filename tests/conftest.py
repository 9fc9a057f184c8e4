import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def placement(request, monkeypatch):
    """The graph family's placement, through ``graph._LOCAL_EDGE_LIMIT``:
    an indirect parameter sets the limit for the case (0 forces the
    bucketed body; one above the graph's edge rows, or no parameter,
    gives the one task), and the returned ``place(limit)`` moves it
    within a case."""
    from aisafetyintervention_literatureextraction_ray.functions import graph

    def place(limit: int) -> None:
        monkeypatch.setattr(graph, "_LOCAL_EDGE_LIMIT", limit)

    place(getattr(request, "param", graph._LOCAL_EDGE_LIMIT))
    return place

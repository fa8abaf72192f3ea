import pytest

from tests.helpers import GOLDEN_NAMES, run_golden


@pytest.fixture(scope="session")
def golden_runs(tmp_path_factory):
    """One completed run + export per golden scenario, shared by tests."""
    out = {}
    for name in GOLDEN_NAMES:
        sim, summary = run_golden(name)
        outdir = tmp_path_factory.mktemp(f"golden-{name}")
        sim.export(outdir)
        out[name] = {"sim": sim, "summary": summary, "outdir": outdir}
    return out

"""Unit tests for the DET determinism lints."""

from pathlib import Path

from repro.statcheck import (
    DET_CODES,
    PASSES,
    lint_determinism_source,
    run_check,
    sim_module_files,
)
from repro.statcheck.det_lints import is_simulation_module

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def codes_of(source, **kwargs):
    return sorted({
        f.code for f in lint_determinism_source(source, "repro/serving/x.py",
                                                **kwargs)
    })


class TestDet001UnseededRng:
    def test_default_rng_without_seed_flagged(self):
        src = ("import numpy as np\n"
               "def f():\n"
               "    rng = np.random.default_rng()\n"
               "    return rng.random()\n")
        assert "DET001" in codes_of(src)

    def test_global_numpy_draw_flagged(self):
        src = ("import numpy as np\n"
               "def f():\n"
               "    return np.random.random()\n")
        assert "DET001" in codes_of(src)

    def test_stdlib_random_flagged(self):
        src = ("import random\n"
               "def f():\n"
               "    return random.choice([1, 2])\n")
        assert "DET001" in codes_of(src)

    def test_seeded_rng_clean(self):
        src = ("import numpy as np\n"
               "def f(seed):\n"
               "    rng = np.random.default_rng(seed)\n"
               "    return rng.random()\n")
        assert codes_of(src) == []

    def test_generator_annotated_param_clean(self):
        src = ("import numpy as np\n"
               "def f(rng: np.random.Generator):\n"
               "    return rng.integers(0, 4)\n")
        assert codes_of(src) == []

    def test_generator_annotated_assign_clean(self):
        src = ("import numpy as np\n"
               "def f(injector):\n"
               "    rng: np.random.Generator = injector.rng\n"
               "    return rng.integers(0, 4)\n")
        assert codes_of(src) == []

    def test_closure_inherits_seeded_name(self):
        src = ("import numpy as np\n"
               "def sim(seed):\n"
               "    rng = np.random.default_rng(seed)\n"
               "    def draw():\n"
               "        return rng.random()\n"
               "    return draw\n")
        assert codes_of(src) == []

    def test_spawn_chain_clean(self):
        src = ("import numpy as np\n"
               "def f(seed):\n"
               "    rng = np.random.default_rng(seed)\n"
               "    child = rng.spawn(1)[0]\n"
               "    return child.random()\n")
        assert codes_of(src) == []


class TestDet002SetIteration:
    def test_for_over_set_literal_flagged(self):
        src = ("def dispatch(emit):\n"
               "    for device in {1, 2, 3}:\n"
               "        emit(device)\n")
        assert "DET002" in codes_of(src)

    def test_list_of_set_flagged(self):
        src = ("def f(pending):\n"
               "    ready = set(pending)\n"
               "    return list(ready)\n")
        assert "DET002" in codes_of(src)

    def test_sorted_set_clean(self):
        src = ("def f(pending):\n"
               "    for device in sorted(set(pending)):\n"
               "        yield device\n")
        assert codes_of(src) == []


class TestDet003WallClock:
    def test_time_time_flagged(self):
        src = ("import time\n"
               "def now_us():\n"
               "    return time.time() * 1e6\n")
        assert "DET003" in codes_of(src)

    def test_datetime_now_flagged(self):
        src = ("import datetime\n"
               "def stamp():\n"
               "    return datetime.datetime.now()\n")
        assert "DET003" in codes_of(src)


class TestDet004FloatTiebreak:
    def test_float_eq_in_lt_flagged(self):
        src = ("class Ev:\n"
               "    def __lt__(self, other):\n"
               "        if self.deadline_us == other.deadline_us:\n"
               "            return self.name < other.name\n"
               "        return self.deadline_us < other.deadline_us\n")
        assert "DET004" in codes_of(src)


class TestScope:
    def test_non_sim_module_not_linted(self):
        src = ("import numpy as np\n"
               "def f():\n"
               "    return np.random.random()\n")
        assert not is_simulation_module("repro/analysis/plots.py", src)

    def test_marker_opts_in(self):
        src = "__simulation__ = True\n"
        assert is_simulation_module("repro/analysis/plots.py", src)

    def test_sim_packages_opted_in_by_path(self):
        assert is_simulation_module("repro/serving/simulator.py", "")
        assert is_simulation_module("repro/cluster/router.py", "")
        assert is_simulation_module("repro/decode/serving.py", "")

    def test_real_tree_is_clean(self):
        report = run_check(
            skip=[p for p in PASSES if p != "det"], ast_root=SRC_ROOT
        )
        assert report.checks_run["det"] >= 20
        assert [f for f in report.findings if f.code.startswith("DET")] == []

    def test_reliability_modules_included_via_marker(self):
        files = {p.as_posix() for p in sim_module_files(SRC_ROOT)}
        assert any(f.endswith("repro/reliability/campaign.py")
                   for f in files)
        assert any(f.endswith("repro/reliability/faults.py")
                   for f in files)

    def test_codes_registry(self):
        assert DET_CODES == ("DET001", "DET002", "DET003", "DET004")

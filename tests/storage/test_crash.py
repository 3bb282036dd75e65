"""The crash-injection harness itself: specs, registry, injector."""

import pytest

from repro.storage import CrashInjector, CrashSpec, SimulatedCrash, all_crash_points


class TestCrashSpec:
    def test_noop(self):
        assert CrashSpec.none().is_noop
        assert not CrashSpec.nth("x.y").is_noop

    def test_validation(self):
        with pytest.raises(ValueError):
            CrashSpec(at={"p": 0})


class TestRegistry:
    def test_write_paths_register_points(self):
        points = all_crash_points()
        # The write-path modules register at import: every file reaches disk
        # through the atomic primitive, plus the publish's one ordering point.
        assert set(points) == {
            "atomic.after_temp_write",
            "atomic.before_rename",
            "atomic.after_rename",
            "store.publish.after_segments",
        }

    def test_sorted_and_stable(self):
        assert list(all_crash_points()) == sorted(all_crash_points())


class TestInjector:
    def test_nth_visit_fires_exactly_once(self):
        injector = CrashInjector(CrashSpec.nth("p", visit=3))
        injector.reach("p")
        injector.reach("p")
        with pytest.raises(SimulatedCrash) as exc:
            injector.reach("p")
        assert exc.value.point == "p" and exc.value.visit == 3
        # A dead process stops reaching crash points: inert afterwards.
        injector.reach("p")
        assert injector.crashed == "p"

    def test_other_points_unaffected(self):
        injector = CrashInjector(CrashSpec.nth("p"))
        injector.reach("q")
        with pytest.raises(SimulatedCrash):
            injector.reach("p")

    def test_noop_injector_counts_nothing(self):
        injector = CrashInjector(CrashSpec.none())
        injector.reach("p")
        assert injector.stats() == {}

    def test_simulated_crash_is_base_exception(self):
        # `except Exception` must NOT swallow it, like a real kill -9.
        assert not issubclass(SimulatedCrash, Exception)
        assert issubclass(SimulatedCrash, BaseException)

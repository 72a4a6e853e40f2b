"""Facade validation of backend-specific constructor kwargs.

Regression tests for the raw ``TypeError`` that used to leak out of
``repro.simulator(6, backend="c", n_shards=4)``: the facade now validates
backend-specific kwargs at resolution time and raises the typed
:class:`repro.fur.UnsupportedBackendKwargError` naming the backend and the
backends that do accept the kwarg.
"""

import pytest

import repro
from repro.fur import UnsupportedBackendKwargError, registry
from repro.fur.simgpu.device import A100_80GB

TERMS = [(1.0, (0, 1))]


class TestTypedKwargError:
    def test_n_shards_on_c_backend(self):
        """The ISSUE's exact reproducer."""
        with pytest.raises(UnsupportedBackendKwargError) as exc:
            repro.simulator(6, terms=TERMS, backend="c", n_shards=4)
        msg = str(exc.value)
        assert "'jit'" in msg  # ``c`` is an alias of the jit tier
        assert "'n_shards'" in msg
        assert "sharded" in msg  # names the backends that accept it

    @pytest.mark.parametrize("backend", ["sharded", "gpu", "gpumpi",
                                         "cusvmpi"])
    @pytest.mark.parametrize("kwarg", ["inner", "block_size", "n_workers",
                                       "parallel_local"])
    def test_retired_kernel_kwargs_rejected(self, backend, kwarg):
        # one kernel family and one thread pool: no backend chooses an inner
        # kernel, sizes a kernel workspace or owns a worker pool any more
        with pytest.raises(UnsupportedBackendKwargError,
                           match=f"'{kwarg}'"):
            repro.simulator(6, terms=TERMS, backend=backend,
                            **{kwarg: 16})

    def test_is_a_typeerror_subclass(self):
        """Existing ``except TypeError`` call sites keep working."""
        assert issubclass(UnsupportedBackendKwargError, TypeError)
        with pytest.raises(TypeError):
            repro.simulator(6, terms=TERMS, backend="c", n_shards=4)

    def test_error_lists_accepted_kwargs(self):
        with pytest.raises(UnsupportedBackendKwargError,
                           match="it accepts: optimize, precision"):
            repro.simulator(6, terms=TERMS, backend="c", bogus=1)

    def test_unknown_everywhere_kwarg(self):
        with pytest.raises(UnsupportedBackendKwargError) as exc:
            repro.simulator(6, terms=TERMS, backend="python",
                            definitely_not_a_kwarg=1)
        # nothing accepts it, so no "backends accepting" hint is offered
        assert "backends accepting" not in str(exc.value)

    def test_alias_resolves_to_canonical_name(self):
        with pytest.raises(UnsupportedBackendKwargError, match="'jit'"):
            repro.simulator(6, terms=TERMS, backend="cpu", n_shards=4)

    def test_multiple_bad_kwargs_all_reported(self):
        with pytest.raises(UnsupportedBackendKwargError,
                           match="'n_shards', 'n_workers'"):
            repro.simulator(6, terms=TERMS, backend="c",
                            n_shards=4, n_workers=2)


class TestValidKwargsStillBind:
    def test_backend_specific_kwargs(self):
        assert repro.simulator(6, terms=TERMS, backend="sharded",
                               n_shards=4).backend_name == "sharded"
        repro.simulator(6, terms=TERMS, backend="gpu", device_spec=A100_80GB)
        repro.simulator(6, terms=TERMS, backend="gates",
                        phase_strategy="ladder")

    def test_precision_and_optimize_for_every_backend(self):
        for backend in ("python", "c", "jit", "sharded", "gates"):
            sim = repro.simulator(6, terms=TERMS, backend=backend,
                                  precision="single", optimize="none")
            assert sim.precision == "single"


class TestRegistryMetadata:
    def test_backends_accepting_kwarg(self):
        assert registry.backends_accepting_kwarg("n_shards") == ["sharded"]
        assert registry.backends_accepting_kwarg("n_workers") == []
        assert registry.backends_accepting_kwarg("parallel_local") == []
        assert registry.backends_accepting_kwarg("inner") == []
        assert registry.backends_accepting_kwarg("block_size") == []
        assert registry.backends_accepting_kwarg("no_such_kwarg") == []

    def test_metadata_matches_constructor_signatures(self):
        """The declared constructor_kwargs must actually bind (no drift)."""
        import inspect

        for name in registry.names():
            spec = registry.spec(name)
            if not spec.available or not spec.constructor_kwargs:
                continue
            for mixer, cls in spec.load().items():
                params = inspect.signature(cls.__init__).parameters
                if any(p.kind is inspect.Parameter.VAR_KEYWORD
                       for p in params.values()):
                    continue
                for kwarg in spec.constructor_kwargs:
                    assert kwarg in params, (
                        f"backend {name!r} declares constructor kwarg "
                        f"{kwarg!r} its {mixer} class does not accept")

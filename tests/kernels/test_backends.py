"""Backend table + cross-backend functional parity.

Every execution path — the three SIMT vendor ports and the scalar CPU
reference — must produce *identical* extension bases and walk states on
the same dataset; they may differ only in profile counters (warp width,
instruction counts, memory traffic). ``repro.kernels.BACKENDS`` is the
single place callers select paths by name or by device.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extension import PRODUCTION_POLICY
from repro.errors import KernelError
from repro.genomics.simulate import PERFECT_READS, ScenarioSpec, simulate_batch
from repro.kernels import (
    WAVE_BACKENDS,
    CudaLocalAssemblyKernel,
    HipLocalAssemblyKernel,
    ScalarReferenceBackend,
    SyclLocalAssemblyKernel,
    available_backends,
    backend_for_device,
    create_backend,
    kernel_for_device,
    resolve_backend,
)
from repro.kernels.engine import ExecutionBackend, run_schedule_coalesced
from repro.simt.device import A100, MAX1550, MI250X, PLATFORMS

SPEC = ScenarioSpec(contig_length=200, flank_length=60, read_length=90,
                    depth=8, seed_window=50)

SCHEDULE_SPEC = ScenarioSpec(contig_length=150, flank_length=50,
                             read_length=70, depth=6, seed_window=40)

BACKENDS = ["cuda", "hip", "sycl", "scalar"]


def _contigs(n=5, seed=3, spec=SPEC):
    rng = np.random.default_rng(seed)
    return [sc.contig for sc in simulate_batch(n, spec, rng, PERFECT_READS)]


class TestRegistry:
    def test_all_four_paths_registered(self):
        assert available_backends() == tuple(sorted(BACKENDS))

    def test_create_by_name(self):
        assert isinstance(create_backend("cuda"), CudaLocalAssemblyKernel)
        assert isinstance(create_backend("hip"), HipLocalAssemblyKernel)
        assert isinstance(create_backend("sycl"), SyclLocalAssemblyKernel)
        assert isinstance(create_backend("scalar"), ScalarReferenceBackend)

    def test_names_are_case_insensitive(self):
        assert isinstance(create_backend("CUDA"), CudaLocalAssemblyKernel)

    def test_unknown_name_raises(self):
        with pytest.raises(KernelError, match="unknown backend"):
            create_backend("opencl")

    def test_backend_for_device_matches_programming_model(self):
        assert isinstance(backend_for_device(A100), CudaLocalAssemblyKernel)
        assert isinstance(backend_for_device(MI250X), HipLocalAssemblyKernel)
        assert isinstance(backend_for_device(MAX1550), SyclLocalAssemblyKernel)

    @pytest.mark.parametrize("device", PLATFORMS, ids=lambda d: d.name)
    def test_resolve_auto_is_backend_for_device(self, device):
        auto = resolve_backend("auto", device)
        assert type(auto) is type(backend_for_device(device))
        assert auto.device is device

    def test_resolve_named_port_runs_on_the_given_device(self):
        kern = resolve_backend("hip", A100)
        assert isinstance(kern, HipLocalAssemblyKernel)
        assert kern.device is A100

    @pytest.mark.parametrize("device", PLATFORMS, ids=lambda d: d.name)
    def test_resolve_scalar_is_deviceless(self, device):
        assert resolve_backend("scalar", device).device is None

    def test_resolve_unknown_name_raises(self):
        with pytest.raises(KernelError, match="unknown backend"):
            resolve_backend("opencl", A100)

    def test_wave_backends_are_auto_plus_the_three_ports(self):
        assert set(WAVE_BACKENDS) == {"auto", "cuda", "hip", "sycl"}

    def test_coalesced_run_rejects_a_backend_without_launches(self):
        # was: AttributeError: ... has no attribute 'fault_injector'
        with pytest.raises(KernelError, match="LocalAssemblyKernel"):
            run_schedule_coalesced(resolve_backend("scalar", A100),
                                   [_contigs(1)], (21,))

    def test_kernel_for_device_still_works(self):
        kern = kernel_for_device(A100)
        assert isinstance(kern, CudaLocalAssemblyKernel)
        assert kern.device is A100

    def test_default_devices_are_the_paper_platforms(self):
        assert create_backend("cuda").device is A100
        assert create_backend("hip").device is MI250X
        assert create_backend("sycl").device is MAX1550

    def test_explicit_device_overrides_default(self):
        from repro.simt.device import DeviceSpec

        custom = MI250X.with_(name="MI250X-x2")
        kern = create_backend("hip", device=custom)
        assert isinstance(kern.device, DeviceSpec)
        assert kern.device.name == "MI250X-x2"

    def test_every_backend_satisfies_the_protocol(self):
        for name in BACKENDS:
            assert isinstance(create_backend(name), ExecutionBackend)


class TestBackendParity:
    """Identical functional output; only the profiles differ."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_run_matches_cuda(self, name):
        contigs = _contigs()
        want = create_backend("cuda").run(contigs, 21)
        got = create_backend(name).run(contigs, 21)
        assert tuple(got.right) == tuple(want.right)
        assert tuple(got.left) == tuple(want.left)

    @pytest.mark.parametrize("name", BACKENDS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_run_schedule_matches_cuda(self, name, seed):
        """Reads with sequencing errors, production thresholds: the
        scalar backend is the independent check of the SIMT ports."""
        rng = np.random.default_rng(seed)
        contigs = [sc.contig for sc in simulate_batch(3, SCHEDULE_SPEC, rng)]
        want = create_backend("cuda", policy=PRODUCTION_POLICY).run_schedule(
            contigs, (21, 33))
        got = create_backend(name, policy=PRODUCTION_POLICY).run_schedule(
            contigs, (21, 33))
        assert got.k == want.k
        assert tuple(got.right) == tuple(want.right)
        assert tuple(got.left) == tuple(want.left)

    def test_profiles_differ_where_the_ports_differ(self):
        contigs = _contigs(seed=5)
        profs = {n: create_backend(n).run(contigs, 21).profile
                 for n in BACKENDS}
        # same work items everywhere...
        assert (profs["cuda"].inserts == profs["hip"].inserts
                == profs["sycl"].inserts == profs["scalar"].inserts)
        assert (profs["cuda"].extension_bases == profs["scalar"].extension_bases)
        # ...but port-specific widths and costs
        assert profs["cuda"].warp_size == 32
        assert profs["hip"].warp_size == 64
        assert profs["sycl"].warp_size == 16
        assert profs["scalar"].warp_size == 1
        # the three protocols charge different per-iteration costs
        assert len({profs[n].intops for n in ("cuda", "hip", "sycl")}) == 3
        assert all(profs[n].sync_ops > 0 for n in ("cuda", "hip", "sycl"))
        assert profs["scalar"].sync_ops == 0
        # the scalar path has no SIMT machinery at all
        assert profs["scalar"].warp_instructions == 0
        assert profs["scalar"].hbm_bytes == 0

    def test_scalar_backend_is_deviceless_by_default(self):
        res = create_backend("scalar").run(_contigs(n=2, seed=8), 21)
        assert res.device is None

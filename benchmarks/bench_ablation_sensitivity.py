"""Ablation: sensitivity of the headline conclusions to model constants.

The two least-certain constants in the simulator are the L2 churn factor
(conflict/interleaving pressure in the cache model) and the per-device
pipeline efficiency. This bench sweeps both and asserts that the paper's
headline *relations* — AMD slowest at k=77, Intel's intensity above AMD's,
AMD moving the most bytes — hold across the whole sweep, i.e. the
reproduction's conclusions are not artifacts of one calibration point.
"""

from conftest import BENCH_SCALE, banner

from repro.analysis.report import render_table
from repro.core.extension import PRODUCTION_POLICY
from repro.kernels import backend_for_device
from repro.perfmodel.timing import extrapolate_profile
from repro.simt.device import PLATFORMS

K = 77


def _profiles(suite, l2_churn):
    out = {}
    for device in PLATFORMS:
        kern = backend_for_device(device, policy=PRODUCTION_POLICY,
                                  l2_churn=l2_churn)
        res = kern.run(suite.dataset(K), K, parallel_scale=BENCH_SCALE)
        out[device.name] = extrapolate_profile(res.profile, device,
                                               BENCH_SCALE)
    return out


def test_ablation_l2_churn_sensitivity(suite, benchmark):
    rows = []
    for churn in (1.0, 2.0, 4.0, 8.0):
        profiles = _profiles(suite, churn)
        rows.append([
            churn,
            round(profiles["A100"].seconds * 1e3, 2),
            round(profiles["MI250X"].seconds * 1e3, 2),
            round(profiles["MAX1550"].seconds * 1e3, 2),
            round(profiles["MI250X"].gbytes / profiles["A100"].gbytes, 2),
        ])
        # headline relations must survive the sweep
        assert profiles["MI250X"].seconds > profiles["A100"].seconds
        assert profiles["MI250X"].seconds > profiles["MAX1550"].seconds
        assert profiles["MI250X"].gbytes > profiles["A100"].gbytes
        assert (profiles["MI250X"].intop_intensity
                < profiles["MAX1550"].intop_intensity)
    benchmark.pedantic(lambda: _profiles(suite, 4.0), rounds=1, iterations=1)

    print(banner(f"Ablation — L2 churn sweep (k={K})"))
    print(render_table(
        ["l2_churn", "A100 (ms)", "MI250X (ms)", "MAX1550 (ms)",
         "AMD/NV byte ratio"], rows))


def test_ablation_pipeline_efficiency_sensitivity(suite, benchmark):
    """Halving/doubling sustained issue rates rescales times but cannot
    reorder the devices (the ordering comes from measured counters)."""
    from repro.perfmodel.timing import predict_time

    base = _profiles(suite, 4.0)
    rows = []
    for eff in (0.5, 1.0):
        times = {}
        for device in PLATFORMS:
            dev = device.with_(pipeline_efficiency=eff)
            times[device.name] = predict_time(base[device.name], dev).total
        rows.append([eff] + [round(times[d.name] * 1e3, 2) for d in PLATFORMS])
        assert times["MI250X"] > times["A100"]
        assert times["MI250X"] > times["MAX1550"]
    benchmark(lambda: predict_time(base["A100"], PLATFORMS[0]))

    print(banner(f"Ablation — pipeline efficiency sweep (k={K})"))
    print(render_table(["efficiency", "A100 (ms)", "MI250X (ms)",
                        "MAX1550 (ms)"], rows))

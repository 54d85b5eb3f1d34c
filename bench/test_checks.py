"""Tests of the benchmark's checkers: each accepts a right output and rejects a
known-wrong one. Run with `python3 -m pytest bench/test_checks.py` from the
repository root; the package under src/ produces the outputs checked here.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from spans import layer_metrics, tail_percentile  # noqa: E402

from gibbsmatch.crossmatch import (greedy_matching, optimal_matching,  # noqa: E402
                                   pairwise_distances, p_value)
from gibbsmatch.formats import save_samples  # noqa: E402
from gibbsmatch.rbm import ChainSettings, SampleBatch  # noqa: E402


def bits(seed, rows, cols):
    return (np.random.default_rng(seed).random((rows, cols)) < 0.5).astype(np.uint8)


# --- distances and matchings ---------------------------------------------------------

def test_hamming_matrix_matches_a_loop_and_the_package():
    x, y = bits(1, 7, 13), bits(2, 7, 13)
    z = np.vstack([x, y])
    loop = [[sum(int(a != b) for a, b in zip(z[i], z[j])) for j in range(14)] for i in range(14)]
    assert np.array_equal(checks.hamming_matrix(x, y, chunk=3), np.array(loop))
    assert np.array_equal(checks.hamming_matrix(x, y), pairwise_distances(x, y).entries)


def test_check_matching_accepts_the_optimal_matching_and_rejects_misstatements():
    x, y = bits(3, 10, 16), bits(4, 10, 16)
    d = checks.hamming_matrix(x, y)
    m = optimal_matching(pairwise_distances(x, y), tie_seed=5)
    a_obs = sum(1 for i, j in m.pairs if (i < 10) != (j < 10))
    assert checks.check_matching(d, m.pairs, m.total_cost, a_obs) == []
    assert checks.check_matching(d, m.pairs, m.total_cost + 1, a_obs)
    assert checks.check_matching(d, m.pairs, m.total_cost, a_obs + 2)
    assert checks.check_matching(d, m.pairs[1:], m.total_cost, a_obs)
    doubled = ((m.pairs[0][0], m.pairs[1][1]),) + m.pairs[1:]
    assert checks.check_matching(d, doubled, m.total_cost, a_obs)


def test_check_minimum_rejects_a_greedy_total_that_is_not_the_minimum():
    for seed in range(50):
        x, y = bits(seed, 10, 16), bits(seed + 1000, 10, 16)
        dm = pairwise_distances(x, y)
        greedy, best = greedy_matching(dm, seed), optimal_matching(dm, seed)
        if greedy.total_cost != best.total_cost:
            break
    else:
        pytest.fail("no instance where greedy matching is not the minimum")
    d = checks.hamming_matrix(x, y)
    assert checks.check_minimum(d, best.total_cost) == []
    assert checks.check_minimum(d, greedy.total_cost)


# --- the null distribution -------------------------------------------------------------

def test_null_counts_match_enumeration_of_all_matchings():
    def matchings(points):
        if not points:
            yield []
            return
        for k in range(1, len(points)):
            rest = points[1:k] + points[k + 1:]
            for tail in matchings(rest):
                yield [(points[0], points[k])] + tail

    for n in (1, 2, 3, 4):
        counts = [0] * (n + 1)
        for m in matchings(list(range(2 * n))):
            counts[sum(1 for i, j in m if (i < n) != (j < n))] += 1
        assert checks.null_counts(n) == counts


@pytest.mark.parametrize("n", [1, 2, 7, 50, 200])
def test_exact_p_values_agree_with_the_package(n):
    for a in range(n % 2, n + 1, 2):
        assert checks.check_p_value(n, a, p_value(a, n)) == []


def test_check_p_value_rejects_a_p_value_one_step_off_and_a_bad_parity():
    assert checks.check_p_value(50, 24, p_value(24, 50)) == []
    assert checks.check_p_value(50, 24, p_value(26, 50))
    assert checks.check_p_value(50, 26, p_value(24, 50))
    assert checks.check_p_value(50, 25, 0.5)
    assert checks.check_p_value(50, 52, 1.0)


def test_calibration_band_accepts_null_p_values_and_rejects_shifted_ones():
    n = 50
    counts = checks.null_counts(n)
    probs = np.array(counts, dtype=float) / sum(counts)
    cdf = np.cumsum(probs)
    draws = np.random.default_rng(9).choice(n + 1, size=80, p=probs / probs.sum())
    null_p = cdf[draws]
    assert checks.check_calibration(null_p, n) == []
    assert checks.check_calibration(null_p * 0.5, n)
    assert checks.check_calibration(np.full(80, 0.01), n)


def test_null_outputs_must_restate_the_trials():
    p = np.array([0.2, 0.55, 0.9, 0.9, 0.05])
    srt = np.sort(p)
    ranks = np.arange(1, 6) / 5
    d_plus, d_minus = float(np.max(ranks - srt)), float(np.max(srt - (ranks - 0.2)))
    summary = {"num_trials": 5, "mean_p": float(p.mean()), "d_plus": d_plus,
               "ks_vs_uniform": max(d_plus, d_minus)}
    edges = [round(0.05 * i, 10) for i in range(21)]
    counts = [int(np.sum((p >= lo) & ((p <= hi) if i == 19 else (p < hi))))
              for i, (lo, hi) in enumerate(zip(edges, edges[1:]))]
    hist = "bin_low,bin_high,count\n" + "".join(
        f"{lo!r},{hi!r},{c}\n" for lo, hi, c in zip(edges, edges[1:], counts))
    assert checks.check_null_outputs(summary, hist, p) == []
    assert checks.check_null_outputs(dict(summary, mean_p=0.6), hist, p)
    assert checks.check_null_outputs(dict(summary, num_trials=6), hist, p)
    assert checks.check_null_outputs(summary, hist.replace(",2\n", ",1\n", 1), p)


# --- sweep rows ---------------------------------------------------------------------

SWEEP = dict(n_units=1284, burn_in=1000, thin=10, n_per_trial=50)


def sweep_rows(means):
    rows = []
    for (label, window), mean_p in zip(checks.PRESET_WINDOWS.items(), means):
        energy, cores = checks.expected_energy(window, 1, **SWEEP)
        rows.append({"label": label, "mean_p": mean_p, "energy": energy,
                     "epeff": mean_p / energy, "cores": cores})
    return sorted(rows, key=lambda r: r["epeff"], reverse=True)


def test_expected_energy_by_hand():
    # 1284 units + 1284 leak neurons = 2568 neurons on 11 cores of 256, for
    # (1000 + 50 * 10) * 2 * 1 = 3000 ticks.
    assert checks.expected_energy(1, 1, **SWEEP) == (2568 * 3000 + 11 * 3000 * 10.0, 11)
    assert checks.expected_energy(8, 4, **SWEEP) == ((1284 + 321) * 24000 + 7 * 24000 * 10.0, 7)


def test_sweep_rows_reject_a_misstated_energy_order_and_mean():
    means = [0.5, 0.3, 0.6, 0.15, 0.45, 0.47, 0.29]
    rows = sweep_rows(means)
    assert checks.check_sweep_rows(rows, means, **SWEEP) == []
    wrong_energy = [dict(r) for r in rows]
    wrong_energy[2]["energy"] *= 1.01
    wrong_energy[2]["epeff"] = wrong_energy[2]["mean_p"] / wrong_energy[2]["energy"]
    assert checks.check_sweep_rows(wrong_energy, means, **SWEEP)
    assert checks.check_sweep_rows(rows[::-1], means, **SWEEP)
    assert checks.check_sweep_rows(rows, [m + 0.01 for m in means], **SWEEP)
    wrong_cores = [dict(r) for r in rows]
    wrong_cores[0]["cores"] += 1
    assert checks.check_sweep_rows(wrong_cores, means, **SWEEP)
    assert checks.check_sweep_rows(rows[:-1], means[:-1], **SWEEP)


def test_sweep_csv_parses():
    text = "label,mean_p,energy,epeff,cores\nG1,0.5,8034000.0,6.2e-08,11\n"
    assert checks.parse_sweep_csv(text) == [
        {"label": "G1", "mean_p": 0.5, "energy": 8034000.0, "epeff": 6.2e-08, "cores": 11}]
    with pytest.raises(ValueError):
        checks.parse_sweep_csv("label,mean_p\n")


# --- sample dumps and repeatability ---------------------------------------------------------

def test_dump_written_by_the_package_parses_back(tmp_path):
    settings = ChainSettings(n_samples=6, burn_in=1000, thin=10)
    batch = SampleBatch(samples=bits(5, 6, 9), sampler_id="ideal", seed=17, settings=settings)
    save_samples(batch, tmp_path / "s.txt")
    data = (tmp_path / "s.txt").read_bytes()
    kw = dict(n=6, r=9, seed=17, sampler_prefix="ideal", burn_in=1000, thin=10)
    assert checks.check_dump(data, **kw) == []
    assert np.array_equal(checks.parse_dump(data)[1], batch.samples)
    assert checks.check_dump(data, **dict(kw, seed=18))
    assert checks.check_dump(data, **dict(kw, n=7))
    assert checks.check_dump(data, **dict(kw, sampler_prefix="analog("))
    assert checks.check_dump(data[:-5], **kw)
    assert checks.check_dump(data.replace(b"GMSAMP1", b"GMSAMP2"), **kw)


def test_compare_trees_finds_a_changed_byte(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name / "sub").mkdir(parents=True)
        (tmp_path / name / "sub" / "f.csv").write_bytes(b"x,1\n")
    assert checks.compare_trees(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "sub" / "f.csv").write_bytes(b"x,2\n")
    assert checks.compare_trees(tmp_path / "a", tmp_path / "b")
    (tmp_path / "b" / "extra").write_bytes(b"")
    assert checks.compare_trees(tmp_path / "a", tmp_path / "b")


# --- per-layer metrics from spans -------------------------------------------------------

def span(sid, parent, name, start, end, counts=None):
    return {"id": sid, "parent": parent, "name": name, "start_ns": int(start * 1e9),
            "end_ns": int(end * 1e9), "counts": counts}


def test_layer_metrics_self_times_and_counts():
    spans = [
        span(0, -1, "cli.main", 0.0, 10.0),
        span(1, 0, "harness.run_trials", 1.0, 9.0),
        span(2, 1, "chains.run_chains", 1.0, 4.0,
             {"steps": 30, "reference_steps": 15, "draw_bytes": 2_000_000}),
        span(3, 2, "chains.IdealKernel.step", 1.5, 2.5),
        span(4, 2, "chains.IdealKernel.step", 2.5, 3.0),
        span(5, 1, "crossmatch.optimal_matching", 5.0, 7.0, {"points": 100}),
    ]
    metrics, notes = layer_metrics(spans, rounds=2)
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["cli.self_s"] == pytest.approx(1.0)           # (10 - 8) / 2 rounds
    assert value["harness.self_s"] == pytest.approx(1.5)       # (8 - 3 - 2) / 2
    assert value["chains.run_chains_s"] == pytest.approx(1.5)
    assert value["chains.engine_self_s"] == pytest.approx(0.75)
    assert value["chains.IdealKernel.step_s"] == pytest.approx(0.75)
    assert value["chains.steps"] == 15
    assert value["harness.reference_steps"] == 7.5
    assert value["chains.draw_mb"] == pytest.approx(1.0)
    assert value["crossmatch.matchings"] == 0.5
    assert value["crossmatch.pooled_points"] == 50
    assert value["crossmatch.optimal_matching_p50_ms"] == pytest.approx(2000.0)
    assert notes["tail_percentile"] == 50.0


@pytest.mark.parametrize("count, q", [(1, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
                                      (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(count, q):
    assert tail_percentile(count) == q

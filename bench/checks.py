"""Independent correctness checkers for the benchmark's outputs.

Nothing here imports gibbsmatch: every checker recomputes what it checks from
first principles (unpacked bits, integer combinatorics, networkx's blossom
matcher, the published resource and energy formulas) and returns a list of
human-readable failures, empty when the output is right.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# Digital sampler presets G1-G7: the sampling window of each, which sets the
# hardware ticks and so the energy of a sweep row.
PRESET_WINDOWS = {"G1": 1, "G2": 1, "G3": 2, "G4": 8, "G5": 16, "G6": 16, "G7": 16}

P_VALUE_RTOL = 1e-9


# --- Hamming distances and matchings ------------------------------------------

def hamming_matrix(x, y, chunk: int = 32) -> np.ndarray:
    """Hamming distances over the pooled rows of x then y, from unpacked bits."""
    z = np.vstack([np.asarray(x, dtype=np.uint8), np.asarray(y, dtype=np.uint8)])
    d = np.empty((len(z), len(z)), dtype=np.int64)
    for start in range(0, len(z), chunk):
        block = z[start:start + chunk]
        d[start:start + chunk] = (block[:, None, :] != z[None, :, :]).sum(axis=2)
    return d


def check_matching(d: np.ndarray, pairs, total_cost, a_obs: int) -> list[str]:
    """A perfect matching of the pooled points whose stated total and cross
    count agree with the distances d (first half of the rows is group X)."""
    size = d.shape[0]
    n = size // 2
    flat = sorted(int(i) for pair in pairs for i in pair)
    if flat != list(range(size)):
        return [f"matching does not cover each of the {size} pooled points exactly once"]
    errors = []
    total = sum(int(d[i, j]) for i, j in pairs)
    if total != total_cost:
        errors.append(f"stated matching total {total_cost} != {total} summed from bit distances")
    cross = sum(1 for i, j in pairs if (i < n) != (j < n))
    if cross != a_obs:
        errors.append(f"stated a_obs {a_obs} != {cross} cross pairs in the matching")
    return errors


def min_matching_total(d: np.ndarray) -> int:
    """Minimum total of a perfect matching, by networkx's blossom algorithm."""
    import networkx as nx

    size = d.shape[0]
    g = nx.Graph()
    g.add_weighted_edges_from((i, j, int(d[i, j]))
                              for i in range(size) for j in range(i + 1, size))
    m = nx.min_weight_matching(g)
    if 2 * len(m) != size:
        raise RuntimeError("networkx returned an imperfect matching")
    return sum(int(d[i, j]) for i, j in m)


def check_minimum(d: np.ndarray, total_cost) -> list[str]:
    best = min_matching_total(d)
    if total_cost != best:
        return [f"matching total {total_cost} is not the minimum {best} (networkx)"]
    return []


# --- the exact null distribution of the cross count ---------------------------

def _double_factorial_odd(m: int) -> int:
    """(m)!! for odd m >= -1, with (-1)!! = 1."""
    out = 1
    for k in range(m, 0, -2):
        out *= k
    return out


def null_counts(n: int) -> list[int]:
    """Number of perfect matchings of n X and n Y points with exactly a cross pairs.

    Choose the a X and a Y points that cross and pair them (C(n,a)^2 a!), then
    match the remaining n - a points of each group among themselves
    ((n - a - 1)!! each); zero when n - a is odd. The counts sum to (2n - 1)!!.
    """
    counts = []
    for a in range(n + 1):
        if (n - a) % 2:
            counts.append(0)
        else:
            counts.append(math.comb(n, a) ** 2 * math.factorial(a)
                          * _double_factorial_odd(n - a - 1) ** 2)
    return counts


def exact_p_value(a_obs: int, n: int) -> Fraction:
    """Lower-tail null probability P(A <= a_obs), as an exact fraction."""
    counts = null_counts(n)
    return Fraction(sum(counts[:a_obs + 1]), _double_factorial_odd(2 * n - 1))


def check_p_value(n: int, a_obs: int, p) -> list[str]:
    """p must be the attainable lower-tail value F(a_obs) at a parity-valid a_obs."""
    if not 0 <= a_obs <= n:
        return [f"a_obs={a_obs} outside 0..{n}"]
    if (n - a_obs) % 2:
        return [f"a_obs={a_obs} has the wrong parity for n={n}"]
    exact = float(exact_p_value(a_obs, n))
    if not math.isclose(float(p), exact, rel_tol=P_VALUE_RTOL, abs_tol=0.0):
        return [f"p-value {p!r} at n={n}, a_obs={a_obs} is not the exact F(a_obs)={exact!r}"]
    return []


def null_p_moments(n: int) -> tuple[float, float]:
    """Mean and variance of the p-value F(A) when A follows the exact null."""
    counts = null_counts(n)
    total = _double_factorial_odd(2 * n - 1)
    mean = Fraction(0)
    second = Fraction(0)
    cdf = 0
    for c in counts:
        cdf += c
        f = Fraction(c, total)
        mean += f * Fraction(cdf, total)
        second += f * Fraction(cdf, total) ** 2
    return float(mean), float(second - mean * mean)


def check_calibration(p_values, n: int, z: float = 5.0, alpha: float = 1e-6) -> list[str]:
    """Null p-values from a self-vs-self run: the mean sits within z standard
    errors of the exact null mean, and the excess of their empirical CDF over
    the uniform one stays under the DKW bound at level alpha (p-values of a
    discrete test are conservative, so the bound holds for them too)."""
    p = np.sort(np.asarray(p_values, dtype=np.float64))
    count = p.size
    mean, var = null_p_moments(n)
    errors = []
    half = z * math.sqrt(var / count)
    if abs(p.mean() - mean) > half:
        errors.append(f"null mean_p {p.mean():.4f} over {count} trials is outside "
                      f"{mean:.4f} +- {half:.4f}")
    d_plus = float(np.max(np.arange(1, count + 1) / count - p))
    bound = math.sqrt(math.log(1 / alpha) / (2 * count))
    if d_plus > bound:
        errors.append(f"null d_plus {d_plus:.4f} over {count} trials exceeds {bound:.4f}")
    return errors


# --- null-check outputs --------------------------------------------------------

def check_null_outputs(summary: dict, histogram_csv: str, p_values) -> list[str]:
    """null_check.json and the histogram CSV restate the trials' p-values."""
    p = np.asarray(p_values, dtype=np.float64)
    errors = []
    if summary.get("num_trials") != p.size:
        errors.append(f"num_trials {summary.get('num_trials')} != {p.size} trials run")
    if not math.isclose(summary.get("mean_p", -1.0), math.fsum(p) / p.size, abs_tol=1e-12):
        errors.append(f"mean_p {summary.get('mean_p')} != mean of the trials' p-values")
    srt = np.sort(p)
    ranks = np.arange(1, p.size + 1) / p.size
    d_plus = max(float(np.max(ranks - srt)), 0.0)
    d_minus = float(np.max(srt - (ranks - 1 / p.size)))
    if not math.isclose(summary.get("d_plus", -1.0), d_plus, abs_tol=1e-12):
        errors.append(f"d_plus {summary.get('d_plus')} != {d_plus} from the p-values")
    if not math.isclose(summary.get("ks_vs_uniform", -1.0), max(d_plus, d_minus), abs_tol=1e-12):
        errors.append(f"ks_vs_uniform {summary.get('ks_vs_uniform')} != {max(d_plus, d_minus)}")
    rows = list(csv.DictReader(io.StringIO(histogram_csv)))
    counted = 0
    for i, row in enumerate(rows):
        lo, hi = float(row["bin_low"]), float(row["bin_high"])
        last = i == len(rows) - 1
        want = int(np.sum((p >= lo) & ((p <= hi) if last else (p < hi))))
        counted += want
        if int(row["count"]) != want:
            errors.append(f"histogram bin [{lo}, {hi}) counts {row['count']}, expected {want}")
    if counted != p.size:
        errors.append(f"histogram bins cover {counted} of {p.size} p-values")
    return errors


# --- sweep rows ------------------------------------------------------------------

def expected_energy(window: int, leak_density: int, *, n_units: int, burn_in: int,
                    thin: int, n_per_trial: int, e_active: float = 1.0,
                    e_core_static: float = 10.0, core_size: int = 256) -> tuple[float, int]:
    """Energy and cores of one digital deployment: every unit is a neuron, every
    leak_density units share one leak neuron, and each Gibbs step updates two
    layers for `window` ticks each."""
    neurons = n_units + -(-n_units // leak_density)
    cores = -(-neurons // core_size)
    ticks = (burn_in + n_per_trial * thin) * 2 * window
    return neurons * ticks * e_active + cores * ticks * e_core_static, cores


def parse_sweep_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != ["label", "mean_p", "energy", "epeff", "cores"]:
        raise ValueError(f"unexpected sweep CSV header {reader.fieldnames}")
    return [{"label": r["label"], "mean_p": float(r["mean_p"]), "energy": float(r["energy"]),
             "epeff": float(r["epeff"]), "cores": int(r["cores"])} for r in reader]


def check_sweep_rows(rows: list[dict], config_means, *, n_units: int, burn_in: int,
                     thin: int, n_per_trial: int) -> list[str]:
    """Rows of a G1-G7 sweep: one per preset, resources and energy by formula,
    epeff = mean_p / energy, sorted by EPEff (best first), and mean_p values
    that are the configs' mean trial p-values (compared as a multiset, since
    the rows are sorted by EPEff)."""
    errors = []
    labels = sorted(r["label"] for r in rows)
    if labels != sorted(PRESET_WINDOWS):
        errors.append(f"sweep labels {labels} != presets {sorted(PRESET_WINDOWS)}")
    for r in rows:
        window = PRESET_WINDOWS.get(r["label"])
        if window is None:
            continue
        energy, cores = expected_energy(window, 1, n_units=n_units, burn_in=burn_in,
                                        thin=thin, n_per_trial=n_per_trial)
        if r["cores"] != cores:
            errors.append(f"{r['label']}: cores {r['cores']} != {cores}")
        if not math.isclose(r["energy"], energy, rel_tol=1e-12):
            errors.append(f"{r['label']}: energy {r['energy']!r} != {energy!r}")
        if not math.isclose(r["epeff"], r["mean_p"] / r["energy"], rel_tol=1e-12):
            errors.append(f"{r['label']}: epeff {r['epeff']!r} != mean_p / energy")
    effs = [r["epeff"] for r in rows]
    if effs != sorted(effs, reverse=True):
        errors.append("sweep rows are not sorted by EPEff, best first")
    got = sorted(r["mean_p"] for r in rows)
    want = sorted(float(m) for m in config_means)
    if len(got) != len(want) or not all(math.isclose(a, b, abs_tol=1e-12)
                                        for a, b in zip(got, want)):
        errors.append(f"sweep mean_p values {got} != the configs' trial means {want}")
    return errors


# --- GMSAMP1 sample dumps --------------------------------------------------------

def parse_dump(data: bytes) -> tuple[dict, np.ndarray]:
    """Header, metadata and bits of a GMSAMP1 dump."""
    lines = data.decode("ascii").split("\n")
    if lines[-1] != "":
        raise ValueError("dump does not end in a newline")
    magic, n, r = lines[0].split(" ")
    if magic != "GMSAMP1":
        raise ValueError(f"bad magic {magic!r}")
    n, r = int(n), int(r)
    meta = json.loads(lines[1])
    rows = lines[2:-1]
    if len(rows) != n or any(len(row) != r or set(row) - {"0", "1"} for row in rows):
        raise ValueError(f"dump body is not {n} rows of {r} bits")
    bits = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8).reshape(n, r) - ord("0")
    return meta, bits


def check_dump(data: bytes, *, n: int, r: int, seed: int, sampler_prefix: str,
               burn_in: int, thin: int) -> list[str]:
    try:
        meta, bits = parse_dump(data)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"dump does not parse: {exc}"]
    errors = []
    if bits.shape != (n, r):
        errors.append(f"dump shape {bits.shape} != {(n, r)}")
    if meta.get("seed") != seed:
        errors.append(f"dump seed {meta.get('seed')} != {seed}")
    if not str(meta.get("sampler_id", "")).startswith(sampler_prefix):
        errors.append(f"dump sampler_id {meta.get('sampler_id')!r} is not {sampler_prefix}...")
    want = {"n_samples": n, "burn_in": burn_in, "thin": thin, "init": "random-uniform"}
    if meta.get("settings") != want:
        errors.append(f"dump settings {meta.get('settings')} != {want}")
    return errors


# --- repeatability ----------------------------------------------------------------

def compare_trees(a, b) -> list[str]:
    """Two output directories hold the same files with the same bytes."""
    a, b = Path(a), Path(b)
    fa = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    fb = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if fa != fb:
        return [f"{a.name} and {b.name} hold different files: {fa} vs {fb}"]
    return [f"{rel} differs between {a.name} and {b.name}"
            for rel in fa if (a / rel).read_bytes() != (b / rel).read_bytes()]

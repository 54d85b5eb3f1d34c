"""CSV/JSON/SVG report rendering."""

import json
import xml.etree.ElementTree as ET

import pytest

from gibbsmatch.crossmatch import CrossmatchOutcome
from gibbsmatch.harness import HISTOGRAM_EDGES, EpeffReport, pvalue_stats
from gibbsmatch.neuro import resource_estimate
from gibbsmatch.reports import (SWEEP_COLUMNS, histogram_csv, outcome_json, stats_json,
                                svg_bar_chart, svg_line_chart, sweep_csv)
from oracles import parse_sweep_csv


def sample_reports():
    out = []
    for label, mean_p, energy in (("a", 0.5, 100.0), ("b", 0.25, 40.0)):
        out.append(EpeffReport(label=label, mean_p=mean_p, energy=energy,
                               epeff=mean_p / energy,
                               resources=resource_estimate(16, 1)))
    return out


def test_sweep_csv_round_trip():
    text = sweep_csv(sample_reports())
    assert text.splitlines()[0] == "label,mean_p,energy,epeff,cores"
    rows = parse_sweep_csv(text)
    assert rows[0] == {"label": "a", "mean_p": 0.5, "energy": 100.0,
                       "epeff": 0.005, "cores": 1}
    assert rows[1]["label"] == "b"
    assert SWEEP_COLUMNS == ("label", "mean_p", "energy", "epeff", "cores")


def test_parse_sweep_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        parse_sweep_csv("label,mean\nx,1\n")


def test_histogram_csv():
    stats = pvalue_stats([0.01, 0.02, 0.99])
    text = histogram_csv(stats, HISTOGRAM_EDGES)
    lines = text.splitlines()
    assert lines[0] == "bin_low,bin_high,count"
    assert len(lines) == 21
    assert lines[1] == "0.0,0.05,2"
    assert lines[-1] == "0.95,1.0,1"
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 3


def test_outcome_json():
    out = CrossmatchOutcome(n=5, a_obs=3, p_value=0.25, method="optimal")
    doc = json.loads(outcome_json(out))
    assert doc == {"n": 5, "a_obs": 3, "p_value": 0.25, "method": "optimal"}
    floored = CrossmatchOutcome(n=4, a_obs=0, p_value=5e-324, method="optimal", log10_p=-400.5)
    assert json.loads(outcome_json(floored))["log10_p"] == -400.5


def test_stats_json_with_extra():
    stats = pvalue_stats([0.5, 1.0])
    doc = json.loads(stats_json(stats, extra={"label": "run-1"}))
    assert doc["num_trials"] == 2
    assert doc["mean_p"] == 0.75
    assert doc["label"] == "run-1"
    assert set(doc) >= {"ks_vs_uniform", "d_plus"}


def test_svg_charts_are_valid_xml_and_deterministic():
    bar = svg_bar_chart(["G1", "G2"], [0.2, 0.4], "efficiency", "epeff")
    root = ET.fromstring(bar)
    assert root.tag.endswith("svg")
    assert bar == svg_bar_chart(["G1", "G2"], [0.2, 0.4], "efficiency", "epeff")
    assert "G1" in bar and "G2" in bar

    line = svg_line_chart(["1", "10", "16"], {"mean_p": [0.6, 0.4, 0.3]},
                          "leak sweep", "density", "mean p")
    ET.fromstring(line)
    assert "mean_p" in line


def test_svg_chart_validation():
    with pytest.raises(ValueError):
        svg_bar_chart([], [], "t", "y")
    with pytest.raises(ValueError):
        svg_bar_chart(["a"], [1.0, 2.0], "t", "y")
    with pytest.raises(ValueError):
        svg_line_chart([], {"s": []}, "t", "x", "y")

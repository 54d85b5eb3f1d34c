"""Model files, sample dumps, IDX images, and synthetic datasets."""

import struct

import numpy as np
import pytest

from gibbsmatch.formats import (ModelFormatError, load_idx_images, load_model,
                                load_samples, save_model, save_samples,
                                synth_dataset)
from gibbsmatch.rbm import ChainSettings, RbmModel, SampleBatch, random_model
from gibbsmatch.rng import derive_rng


def write_idx(path, images):
    """Raw IDX3 bytes for a (count, rows, cols) uint8 array."""
    images = np.asarray(images, dtype=np.uint8)
    head = struct.pack(">IIII", 0x00000803, *images.shape)
    path.write_bytes(head + images.tobytes())


# --- model files ------------------------------------------------------------------

def test_model_round_trip(tmp_path):
    model = random_model(5, 3, 0.7, seed=19)
    p = tmp_path / "m.rbm"
    save_model(model, p)
    back = load_model(p)
    np.testing.assert_array_equal(back.W, model.W)
    np.testing.assert_array_equal(back.b_v, model.b_v)
    np.testing.assert_array_equal(back.b_h, model.b_h)


def test_model_save_is_stable(tmp_path):
    # repr() floats round-trip, so save -> load -> save is byte-identical
    model = random_model(4, 4, 1.3, seed=7)
    a, b = tmp_path / "a.rbm", tmp_path / "b.rbm"
    save_model(model, a)
    save_model(load_model(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_model_file_shape(tmp_path):
    model = RbmModel(W=np.array([[0.5, -1.0]]), b_v=np.array([0.25]),
                     b_h=np.array([0.0, 2.0]))
    p = tmp_path / "m.rbm"
    save_model(model, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "GMRBM1 1 2"
    assert lines[1] == "0.5 -1.0"
    assert lines[2] == "0.25"
    assert lines[3] == "0.0 2.0"


def test_model_truncation_names_byte_offset(tmp_path):
    model = random_model(3, 2, 0.5, seed=1)
    p = tmp_path / "m.rbm"
    save_model(model, p)
    data = p.read_bytes()
    cut = data[: data.index(b"\n", data.index(b"\n") + 1) + 1]  # header + one W row
    p.write_bytes(cut)
    with pytest.raises(ModelFormatError, match=f"byte {len(cut)}"):
        load_model(p)


def test_model_bad_headers(tmp_path):
    p = tmp_path / "m.rbm"
    p.write_text("GMRBM2 2 2\n")
    with pytest.raises(ModelFormatError, match="version"):
        load_model(p)
    p.write_text("hello world\n")
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(p)
    p.write_text("GMRBM1 2\n")
    with pytest.raises(ModelFormatError, match="header"):
        load_model(p)
    p.write_text("GMRBM1 0 2\n")
    with pytest.raises(ModelFormatError, match="dimensions"):
        load_model(p)


def test_model_bad_rows(tmp_path):
    p = tmp_path / "m.rbm"
    p.write_text("GMRBM1 1 2\n0.5\n0.0\n0.0 0.0\n")
    with pytest.raises(ModelFormatError, match="weight row 0.*expected 2"):
        load_model(p)
    p.write_text("GMRBM1 1 2\n0.5 oops\n0.0\n0.0 0.0\n")
    with pytest.raises(ModelFormatError, match="bad number"):
        load_model(p)
    p.write_text("GMRBM1 1 2\n0.5 inf\n0.0\n0.0 0.0\n")
    with pytest.raises(ModelFormatError, match="non-finite"):
        load_model(p)


# --- sample dumps -------------------------------------------------------------------

def make_batch():
    samples = (derive_rng(3, 1).random((6, 9)) < 0.5).astype(np.uint8)
    return SampleBatch(samples=samples, sampler_id="ideal", seed=42,
                       settings=ChainSettings(n_samples=6, burn_in=12, thin=2))


def test_samples_round_trip(tmp_path):
    batch = make_batch()
    p = tmp_path / "s.dump"
    save_samples(batch, p)
    back = load_samples(p)
    np.testing.assert_array_equal(back.samples, batch.samples)
    assert back.sampler_id == "ideal" and back.seed == 42
    assert back.settings == batch.settings
    q = tmp_path / "s2.dump"
    save_samples(back, q)
    assert p.read_bytes() == q.read_bytes()


@pytest.mark.parametrize("init", ["given-vector", "warm"])
def test_samples_with_another_init_rule_are_rejected(tmp_path, init):
    p = tmp_path / "s.dump"
    p.write_text('GMSAMP1 1 4\n{"sampler_id":"x","seed":0,"settings":{"n_samples":1,'
                 f'"burn_in":0,"thin":1,"init":"{init}"}}}}\n0101\n')
    with pytest.raises(ModelFormatError, match=f"unknown init rule '{init}'"):
        load_samples(p)


def test_samples_bad_rows(tmp_path):
    p = tmp_path / "s.dump"
    p.write_text('GMSAMP1 2 4\n{"sampler_id":"x","seed":0,"settings":{"n_samples":2,'
                 '"burn_in":0,"thin":1,"init":"random-uniform"}}\n0101\n012\n')
    with pytest.raises(ModelFormatError, match="sample row 1"):
        load_samples(p)
    p.write_text("GMSAMP1 1 4\nnot json\n0101\n")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_samples(p)
    p.write_text("GMSAMP2 1 4\n{}\n0101\n")
    with pytest.raises(ModelFormatError, match="version"):
        load_samples(p)


# --- IDX images ----------------------------------------------------------------------

def test_idx_basic_binarization(tmp_path):
    p = tmp_path / "imgs.idx3"
    write_idx(p, [[[0, 255], [0, 255]], [[255, 0], [255, 0]]])
    rows = load_idx_images(p, threshold=0.5)
    np.testing.assert_array_equal(rows, [[0, 1, 0, 1], [1, 0, 1, 0]])


def test_idx_threshold_boundary(tmp_path):
    p = tmp_path / "imgs.idx3"
    write_idx(p, [[[127, 128], [254, 255]]])
    # threshold 1.0 keeps only saturated pixels
    np.testing.assert_array_equal(load_idx_images(p, threshold=1.0), [[0, 0, 0, 1]])
    # pixel/255 >= 0.5 first holds at 128
    np.testing.assert_array_equal(load_idx_images(p, threshold=0.5), [[0, 1, 1, 1]])


def test_idx_empty_count(tmp_path):
    p = tmp_path / "imgs.idx3"
    write_idx(p, np.zeros((0, 3, 3), dtype=np.uint8))
    assert load_idx_images(p).shape == (0, 9)


def test_idx_error_cases(tmp_path):
    p = tmp_path / "imgs.idx3"
    p.write_bytes(b"\x00\x00\x08\x03")
    with pytest.raises(ModelFormatError, match="16 bytes"):
        load_idx_images(p)
    p.write_bytes(struct.pack(">IIII", 0x00000801, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(ModelFormatError, match="magic"):
        load_idx_images(p)
    p.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
    with pytest.raises(ModelFormatError, match="short read"):
        load_idx_images(p)
    write_idx(p, np.zeros((1, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        load_idx_images(p, threshold=0.0)


# --- synthetic datasets -----------------------------------------------------------------

def test_synth_two_cluster_noise_free():
    data = synth_dataset("two-cluster", r=8, count=200, noise=0.0, seed=4)
    assert data.shape == (200, 8)
    row_sums = data.sum(axis=1)
    assert set(row_sums) == {0, 8}  # pure prototypes only
    assert 40 < (row_sums == 8).sum() < 160


def test_synth_bars_halves():
    data = synth_dataset("bars", r=10, count=100, noise=0.0, seed=5)
    left = data[:, :5].sum(axis=1)
    right = data[:, 5:].sum(axis=1)
    assert (((left == 5) & (right == 0)) | ((left == 0) & (right == 5))).all()


def test_synth_deterministic_and_noisy():
    a = synth_dataset("two-cluster", r=6, count=50, noise=0.3, seed=9)
    b = synth_dataset("two-cluster", r=6, count=50, noise=0.3, seed=9)
    np.testing.assert_array_equal(a, b)
    # noise 0.5 erases the clusters: overall bit rate near one half
    c = synth_dataset("two-cluster", r=16, count=2000, noise=0.5, seed=10)
    assert abs(c.mean() - 0.5) < 0.02


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_dataset("two-cluster", r=3, count=1, noise=0.0, seed=0)
    with pytest.raises(ValueError):
        synth_dataset("two-cluster", r=8, count=-1, noise=0.0, seed=0)
    with pytest.raises(ValueError):
        synth_dataset("two-cluster", r=8, count=1, noise=1.5, seed=0)
    with pytest.raises(ValueError):
        synth_dataset("spiral", r=8, count=1, noise=0.0, seed=0)

import math

import numpy as np
import pytest

import qcanary as qc
from qcanary import OffsetSpec
from qcanary.classifier import _stack_states
from qcanary.encoding import _encode_rows


# width bounds ---------------------------------------------------------------

def test_sigma_bound_pinned_quantile():
    # 2 arcsin(d) / 2.576 evaluated separately: d = 0.1 and d = 1
    assert qc.sigma_bound(0.1, 0.01) == pytest.approx(0.07776973692667687, abs=1e-15)
    assert qc.sigma_bound(1.0, 0.01) == pytest.approx(1.219562365523988, abs=1e-15)


def test_sigma_bound_generic_quantile():
    # at delta_conf = 0.02 the quantile is 2.3263478740408408 (scipy ppf)
    assert qc.sigma_bound(0.1, 0.02) == pytest.approx(0.08611559971688162, abs=1e-12)


def test_gamma_bound():
    assert qc.gamma_bound(0.1) == pytest.approx(0.2003348423231196, abs=1e-15)
    assert qc.gamma_bound(1.0) == pytest.approx(math.pi, abs=1e-15)


def test_bound_domains():
    with pytest.raises(ValueError):
        qc.sigma_bound(0.0, 0.01)
    with pytest.raises(ValueError):
        qc.sigma_bound(1.1, 0.01)
    with pytest.raises(ValueError):
        qc.sigma_bound(0.5, 0.0)
    with pytest.raises(ValueError):
        qc.gamma_bound(-0.1)


def test_offset_spec_fills_defaults():
    spec = OffsetSpec(d=0.1)
    assert spec.sigma == pytest.approx(qc.sigma_bound(0.1, 0.01), abs=1e-15)
    assert spec.gamma == pytest.approx(qc.gamma_bound(0.1), abs=1e-15)
    # the widths are derived from d and delta_conf, not set
    with pytest.raises(TypeError):
        OffsetSpec(d=0.1, sigma=0.01)


def test_sample_offsets_clipped(rng):
    spec = OffsetSpec(d=0.1)
    draws = qc.sample_offsets(spec, 20000, rng)
    assert np.abs(draws).max() <= spec.gamma
    # clipping keeps every per-qubit distance within d
    assert np.abs(np.sin(draws / 2)).max() <= 0.1 + 1e-15


def test_offset_width_calibration(rng):
    # unclipped draws at sigma_bound(0.1, 0.01) should land inside the
    # distance budget about 99 percent of the time
    sigma = qc.sigma_bound(0.1, 0.01)
    draws = rng.normal(0.0, sigma, 100000)
    frac = (np.abs(np.sin(draws / 2)) < 0.1).mean()
    assert 0.985 <= frac <= 0.995


# encodings ------------------------------------------------------------------

def test_angle_encode_endpoints():
    lo = qc.angle_encode([0.0, 0.0])
    hi = qc.angle_encode([1.0, 1.0])
    assert np.allclose(lo.amps, [1, 0, 0, 0], atol=1e-15)
    assert np.allclose(hi.amps, [0, 0, 0, 1], atol=1e-12)


def test_angle_encode_clamps():
    a = qc.angle_encode([-0.5, 1.7])
    b = qc.angle_encode([0.0, 1.0])
    assert np.allclose(a.amps, b.amps, atol=1e-15)


def test_offset_encoding_shifts_angle():
    x, alpha = 0.4, 0.13
    shifted = qc.angle_encode_offset(np.array([x]), np.array([alpha]))
    direct = math.pi * x + alpha
    assert np.allclose(shifted.amps, [math.cos(direct / 2), math.sin(direct / 2)],
                       atol=1e-14)


def _kron_encoding(features, offsets):
    """The RY product state built qubit by qubit with np.kron."""
    angles = math.pi * np.clip(features, 0.0, 1.0)
    if offsets is not None:
        angles = angles + offsets
    amps = np.array([1.0 + 0.0j])
    for theta in angles:
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        amps = np.kron(amps, np.array([c, s], dtype=complex))
    return amps


def test_block_encoder_matches_kron_reference(rng):
    m, dim = 4, 16
    # features beyond [0, 1] clamp at both ends
    feats = rng.uniform(-0.3, 1.3, size=(40, m))
    assert (feats < 0.0).any() and (feats > 1.0).any()
    spec = OffsetSpec(d=0.1)
    offsets = np.clip(rng.normal(0.0, 2.0 * spec.gamma, size=feats.shape),
                      -spec.gamma, spec.gamma)
    assert (np.abs(offsets) == spec.gamma).any()
    for offs in (None, offsets):
        got = _stack_states(_encode_rows(feats, offs), dim)
        want = _stack_states([_kron_encoding(f, None if offs is None else o)
                              for f, o in zip(feats, offsets)], dim)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # the one-state encoders are the block's one-row case
    one = _stack_states([qc.angle_encode(feats[0]),
                         qc.angle_encode_offset(feats[1], offsets[1])], dim)
    want = _stack_states([_kron_encoding(feats[0], None),
                          _kron_encoding(feats[1], offsets[1])], dim)
    assert one.dtype == want.dtype
    assert np.array_equal(one, want)


# pair distances -------------------------------------------------------------

def test_pair_distances_closed_form():
    per_qubit, full = qc.pair_distances(np.array([0.3, 0.6]),
                                        np.array([math.pi / 3, math.pi / 3]))
    assert np.allclose(per_qubit, [0.5, 0.5], atol=1e-14)
    # sqrt(1 - cos^4(pi/6)) = sqrt(7)/4
    assert full == pytest.approx(0.6614378277661476, abs=1e-14)
    # a NaN offset is no distance at all, not distance 0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            qc.pair_distances([0.1, 0.2], [bad, 0.1])


def test_full_distance_matches_state_overlap(rng):
    # the product closed form has to agree with the trace distance
    # computed from the actual encoded states
    for _ in range(25):
        feats = rng.uniform(0, 1, 3)
        offsets = rng.uniform(-0.3, 0.3, 3)
        _, full = qc.pair_distances(feats, offsets)
        direct = qc.pure_trace_distance(qc.angle_encode(feats),
                                        qc.angle_encode_offset(feats, offsets))
        assert full == pytest.approx(direct, abs=1e-10)

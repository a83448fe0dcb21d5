"""Hermitian/determinant kernels: identities, domains, reproducibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranopt import (
    ChannelInstance,
    DomainError,
    DownlinkDesign,
    InconsistencyError,
    InstanceFormatError,
    InvalidInputError,
    LN2,
    SolverOptions,
    SubchannelAllocation,
    TOL,
    UplinkDesign,
    assemble_uplink,
    check_downlink_bounds,
    check_uplink_rate_bound,
    feasibility_projection,
    grid_oracle_scalar,
    hermitian_part,
    is_psd,
    log_majorizes,
    logdet_ratio,
    perturbation_search,
    random_channel,
    random_unitary,
    schur_geo_convexity_probe,
    solve_instance,
    solve_scalar_allocation,
    subchannel_rate,
    svd,
    tight_quantizer_downlink,
    tight_quantizer_uplink,
    waterfilling_capacity,
)
from cranopt.cli import ExperimentConfig, instance_from_record
from cranopt.kernels import as_complex_matrix, hermitian_defect, logdet_ratio_stacked


def _rand_hpd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (X @ X.conj().T) / n + 1e-3 * scale * np.eye(n)


def test_logdet_ratio_matches_logdet_difference():
    for seed in range(8):
        M = _rand_hpd(3, seed)
        B = _rand_hpd(3, seed + 100)
        direct = np.linalg.slogdet(B + M)[1] - np.linalg.slogdet(B)[1]
        assert np.isclose(logdet_ratio(M, B), direct, rtol=1e-11, atol=1e-12)


def test_logdet_ratio_scale_invariance():
    # log|B+M| - log|B| with M,B scaled together only shifts by nothing:
    # ratio form must survive scales far below any absolute eigenvalue floor
    M = _rand_hpd(2, 0, scale=1e-16)
    B = _rand_hpd(2, 1, scale=1e-16)
    ref = logdet_ratio(1e16 * M, 1e16 * B)
    assert np.isclose(logdet_ratio(M, B), ref, rtol=1e-10)


def test_logdet_ratio_zero_numerator():
    B = _rand_hpd(3, 2)
    assert logdet_ratio(np.zeros((3, 3)), B) == 0.0


def test_logdet_ratio_empty_blocks():
    E = np.zeros((0, 0))
    assert logdet_ratio(E, E) == 0.0


def test_logdet_ratio_rejects_non_pd_base():
    with pytest.raises(DomainError):
        logdet_ratio(np.eye(2), np.diag([1.0, 0.0]))


def test_logdet_ratio_stacked_fails_only_the_bad_lanes():
    # lane 1 has a singular base, lane 2 a base plus load that is not
    # positive definite; the stacked factorization of lane 1 fails the whole
    # stack, so the lanes are factored one by one
    B = np.stack([_rand_hpd(2, 1), np.diag([1.0, 0.0]), np.eye(2), _rand_hpd(2, 2)])
    M = np.stack([_rand_hpd(2, 3), np.eye(2), -2.0 * np.eye(2), _rand_hpd(2, 4)])
    nats, ok = logdet_ratio_stacked(M.astype(complex), B.astype(complex))
    assert ok.tolist() == [True, False, False, True]
    for k in (0, 3):
        assert nats[k] == logdet_ratio(M[k], B[k])


def test_logdet_ratio_stacked_empty_spectrum_is_zero():
    # an empty forwarded subspace restricts every lane to a 0 x 0 pair
    nats, ok = logdet_ratio_stacked(np.zeros((3, 0, 0), complex), np.zeros((3, 0, 0), complex))
    assert nats.tolist() == [0.0, 0.0, 0.0]
    assert ok.all()
    assert logdet_ratio(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0


def test_hermitian_part_and_defect():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = hermitian_part(X)
    assert np.allclose(H, H.conj().T)
    assert hermitian_defect(H) <= 1e-15
    assert hermitian_defect(X) > 1e-3


def test_is_psd():
    assert is_psd(np.eye(3))
    assert is_psd(np.zeros((2, 2)))
    assert not is_psd(np.diag([1.0, -1e-6]))
    with pytest.raises(InvalidInputError):
        is_psd(np.zeros((2, 3)))


def test_as_complex_matrix_rejects_vectors():
    with pytest.raises(InvalidInputError):
        as_complex_matrix(np.ones(3))


def test_svd_reconstruction_and_gains():
    for seed in range(6):
        H = random_channel(3, 2, seed)
        spec = svd(H)
        U, s, V = spec.left_basis, spec.singular_values, spec.right_basis
        assert np.allclose((U * s) @ V.conj().T, H, atol=TOL.reconstruction)
        assert np.all(np.diff(spec.singular_values) <= 0)
        assert np.allclose(spec.gains_squared, spec.singular_values**2)


def test_svd_bases_are_unitary():
    # thin bases: one orthonormal column per subchannel, D = min(n_r, n_u)
    for n_r, n_u in [(4, 3), (3, 4)]:
        spec = svd(random_channel(n_r, n_u, 11))
        D = min(n_r, n_u)
        assert spec.left_basis.shape == (n_r, D)
        assert spec.right_basis.shape == (n_u, D)
        for U in (spec.left_basis, spec.right_basis):
            assert np.allclose(U.conj().T @ U, np.eye(D), atol=TOL.unitary)


def test_svd_raises_on_a_bad_reconstruction(monkeypatch):
    lapack_svd = np.linalg.svd

    def off_by_1e6(A, *args, **kwargs):
        U, s, Vh = lapack_svd(A, *args, **kwargs)
        return U, s * (1.0 + 1e-6), Vh

    monkeypatch.setattr(np.linalg, "svd", off_by_1e6)
    with pytest.raises(InconsistencyError, match="SVD reconstruction residual"):
        svd(random_channel(3, 2, 0))


def test_random_unitary_deterministic_and_unitary():
    U1 = random_unitary(4, 7)
    U2 = random_unitary(4, 7)
    assert np.array_equal(U1, U2)
    assert np.allclose(U1.conj().T @ U1, np.eye(4), atol=TOL.unitary)
    assert random_unitary(4, 8)[0, 0] != U1[0, 0]


def test_random_channel_deterministic():
    H1 = random_channel(2, 3, 42)
    H2 = random_channel(2, 3, 42)
    assert np.array_equal(H1, H2)
    assert H1.shape == (2, 3)
    assert H1.dtype == np.complex128


_BAD_SEEDS = [-1, 1.5, True, "3", None]


@pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
def test_random_channel_rejects_bad_seed(seed):
    with pytest.raises(InvalidInputError, match="seed"):
        random_channel(1, 1, seed=seed)


@pytest.mark.parametrize("seed", _BAD_SEEDS, ids=repr)
def test_random_unitary_rejects_bad_seed(seed):
    with pytest.raises(InvalidInputError, match="seed"):
        random_unitary(2, seed=seed)


def test_random_generators_accept_numpy_integer_seeds():
    assert np.array_equal(random_channel(2, 2, np.int64(5)), random_channel(2, 2, 5))
    assert np.array_equal(random_unitary(2, np.uint32(5)), random_unitary(2, 5))


def test_ln2_constant():
    assert LN2 == np.log(2.0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_logdet_ratio_positive_for_psd_load(n, seed):
    # adding a PSD matrix can only grow the determinant
    M = _rand_hpd(n, seed)
    B = _rand_hpd(n, seed + 1)
    assert logdet_ratio(M, B) >= 0.0


# Rejection matrix: each public entry point, crossed with the bad values that
# apply to each of its arguments, must raise InvalidInputError (or
# InstanceFormatError where the JSON schema rejects the value first).
_H = np.diag([2.0, 1.0])
_INST = ChannelInstance(H=_H, P=2.0, C=3.0, sigma2=1.0)
_BASE = solve_instance(_INST, "uplink")[0]
_NONNEG = [np.nan, np.inf, -np.inf, -1.0, "x", "2", None, 1j]
_NONNEG_ARRAY = _NONNEG + [[1.0, np.nan], [-1.0, 1.0], [np.inf, 1.0]]
_POSITIVE = _NONNEG + [0.0, [1.0, 2.0], [1.0]]
# a budget is one number: arrays are rejected whatever their length
_BUDGET = _NONNEG_ARRAY + [[1.0, 2.0], [1.0], np.array([1.0, 2.0])]
_COUNT = [np.nan, np.inf, -1, True, 1.5, 2.0, 2.5, "3", None]
_DIRECTION = ["sideways", "UPLINK", True, None]
# a matrix argument holds finite numbers in two nonempty dimensions
_MATRIX = [
    [["x"]],
    [["2"]],
    [[b"1"]],
    np.array([["2020-01-01"]], dtype="datetime64[D]"),
    [[None]],
    [[np.nan]],
    np.ones(2),
    np.zeros((0, 2)),
]


def _config(**kw):
    kw.setdefault("random_spec", (1, 1, 1))
    return ExperimentConfig(mode="solve", **kw)


def _search(direction="uplink", trials=2, seed=0):
    return perturbation_search(_INST, direction, _BASE, trials, seed)


def _record(**kw):
    rec = {"n_r": 1, "n_u": 1, "H": [[[1.0, 0.0]]], "P": 1.0, "C": 1.0, "sigma2": 1.0}
    return instance_from_record({**rec, **kw})


# (entry point.argument, call with the argument set to v, bad values)
_REJECTIONS = [
    ("ChannelInstance.H", lambda v: ChannelInstance(v, 1.0, 1.0, 1.0), _MATRIX),
    ("ChannelInstance.P", lambda v: ChannelInstance(_H, v, 1.0, 1.0), _BUDGET),
    ("ChannelInstance.C", lambda v: ChannelInstance(_H, 1.0, v, 1.0), _BUDGET),
    ("ChannelInstance.sigma2", lambda v: ChannelInstance(_H, 1.0, 1.0, v), _POSITIVE),
    ("SubchannelAllocation.power", lambda v: SubchannelAllocation(v, 1.0), _NONNEG_ARRAY),
    ("SubchannelAllocation.share", lambda v: SubchannelAllocation(1.0, v), _NONNEG_ARRAY),
    ("SolverOptions.c_max", lambda v: SolverOptions(c_max=v), _POSITIVE),
    ("subchannel_rate.s", lambda v: subchannel_rate(v, 1.0, 1.0), _NONNEG_ARRAY),
    ("subchannel_rate.c", lambda v: subchannel_rate(1.0, v, 1.0), _NONNEG_ARRAY),
    ("subchannel_rate.sigma2", lambda v: subchannel_rate(1.0, 1.0, v), _POSITIVE),
    ("tight_quantizer_uplink.h2", lambda v: tight_quantizer_uplink(v, 1, 1, 1), _NONNEG_ARRAY),
    ("tight_quantizer_uplink.p", lambda v: tight_quantizer_uplink(1, v, 1, 1), _NONNEG_ARRAY),
    ("tight_quantizer_uplink.c", lambda v: tight_quantizer_uplink(1, 1, v, 1), _NONNEG_ARRAY),
    ("tight_quantizer_uplink.sigma2", lambda v: tight_quantizer_uplink(1, 1, 1, v), _POSITIVE),
    (
        "assemble_uplink.sigma2",
        lambda v: assemble_uplink(svd(np.eye(2)), SubchannelAllocation([0.0, 0.0], [0.0, 0.0]), v),
        _POSITIVE,
    ),
    ("tight_quantizer_downlink.x", lambda v: tight_quantizer_downlink(v, 1.0), _NONNEG_ARRAY),
    ("tight_quantizer_downlink.c", lambda v: tight_quantizer_downlink(1.0, v), _NONNEG_ARRAY),
    ("solve_scalar_allocation.gains", lambda v: solve_scalar_allocation(v, 1, 1, 1), _NONNEG_ARRAY),
    ("solve_scalar_allocation.P", lambda v: solve_scalar_allocation([1], v, 1, 1), _BUDGET),
    ("solve_scalar_allocation.C", lambda v: solve_scalar_allocation([1], 1, v, 1), _BUDGET),
    ("solve_scalar_allocation.sigma2", lambda v: solve_scalar_allocation([1], 1, 1, v), _POSITIVE),
    ("waterfilling_capacity.gains", lambda v: waterfilling_capacity(v, 1.0, 1.0), _NONNEG_ARRAY),
    ("waterfilling_capacity.P", lambda v: waterfilling_capacity([1.0], v, 1.0), _BUDGET),
    ("waterfilling_capacity.sigma2", lambda v: waterfilling_capacity([1.0], 1.0, v), _POSITIVE),
    ("grid_oracle_scalar.gains", lambda v: grid_oracle_scalar(v, 1, 1, 1), _NONNEG_ARRAY),
    ("grid_oracle_scalar.P", lambda v: grid_oracle_scalar([1], v, 1, 1), _BUDGET),
    ("grid_oracle_scalar.C", lambda v: grid_oracle_scalar([1], 1, v, 1), _BUDGET),
    ("grid_oracle_scalar.sigma2", lambda v: grid_oracle_scalar([1], 1, 1, v), _POSITIVE),
    (
        "grid_oracle_scalar.resolution",
        lambda v: grid_oracle_scalar([1], 1, 1, 1, resolution=v),
        _COUNT + [1, np.float64(11.0)],
    ),
    ("perturbation_search.direction", lambda v: _search(direction=v), _DIRECTION),
    ("perturbation_search.trials", lambda v: _search(trials=v), _COUNT),
    ("perturbation_search.seed", lambda v: _search(seed=v), _COUNT),
    (
        "feasibility_projection.direction",
        lambda v: feasibility_projection(_INST, v, np.eye(2), np.eye(2)),
        _DIRECTION,
    ),
    ("solve_instance.direction", lambda v: solve_instance(_INST, v), _DIRECTION),
    ("random_channel.n_r", lambda v: random_channel(v, 1, 0), _COUNT + [0]),
    ("random_channel.n_u", lambda v: random_channel(1, v, 0), _COUNT + [0]),
    ("random_channel.seed", lambda v: random_channel(1, 1, v), _COUNT),
    ("UplinkDesign.S", lambda v: UplinkDesign(S=v, Q=np.eye(2)), _MATRIX),
    ("DownlinkDesign.Q", lambda v: DownlinkDesign(S=np.eye(2), Q=v), _MATRIX),
    ("svd.H", svd, _MATRIX),
    ("is_psd.M", is_psd, _MATRIX),
    (
        "feasibility_projection.S_like",
        lambda v: feasibility_projection(_INST, "uplink", v, np.eye(2)),
        _MATRIX,
    ),
    ("random_unitary.n", lambda v: random_unitary(v, 0), _COUNT + [0]),
    ("random_unitary.seed", lambda v: random_unitary(1, v), _COUNT),
    ("is_psd.tol", lambda v: is_psd(np.eye(2), v), _BUDGET),
    ("log_majorizes.a", lambda v: log_majorizes([1.0, v], [1.0, 1.0]), _NONNEG),
    ("log_majorizes.b", lambda v: log_majorizes([1.0, 1.0], [1.0, v]), _NONNEG),
    ("log_majorizes.tol", lambda v: log_majorizes([1.0], [1.0], v), _BUDGET + [1.0]),
    (
        "check_uplink_rate_bound.sigma2",
        lambda v: check_uplink_rate_bound(np.eye(2), np.eye(2), v),
        _POSITIVE,
    ),
    (
        "check_downlink_bounds.sigma2",
        lambda v: check_downlink_bounds(_H, np.eye(2), "signal", v),
        _POSITIVE,
    ),
    (
        "schur_geo_convexity_probe.sigma2",
        lambda v: schur_geo_convexity_probe([1.0], [1.0], v),
        _POSITIVE,
    ),
    ("ExperimentConfig.seed", lambda v: _config(seed=v), _COUNT),
    ("ExperimentConfig.trials", lambda v: _config(trials=v), _COUNT),
    ("ExperimentConfig.tol", lambda v: _config(tol=v), _POSITIVE),
    ("ExperimentConfig.random_spec.n_r", lambda v: _config(random_spec=(v, 1, 1)), _COUNT + [0]),
    ("ExperimentConfig.random_spec.n_u", lambda v: _config(random_spec=(1, v, 1)), _COUNT + [0]),
    ("ExperimentConfig.random_spec.count", lambda v: _config(random_spec=(1, 1, v)), _COUNT + [0]),
]
# the JSON path: numbers of the wrong domain reach ChannelInstance, other
# values fail the schema
_JSON_REJECTIONS = [
    ("instance_from_record.P", lambda v: _record(P=v), [np.nan, np.inf, -1.0], [True, "x", None]),
    ("instance_from_record.C", lambda v: _record(C=v), [np.nan, np.inf, -1.0], [True, "x", None]),
    ("instance_from_record.sigma2", lambda v: _record(sigma2=v), [np.nan, 0.0], [True, "x", None]),
    ("instance_from_record.n_r", lambda v: _record(n_r=v), [], [-1, 0, True, 2.5, "1", None]),
]


def _rejection_cases():
    for arg, call, values in _REJECTIONS:
        for v in values:
            yield pytest.param(call, v, InvalidInputError, id=f"{arg}={v!r}")
    for arg, call, domain, schema in _JSON_REJECTIONS:
        for v in domain:
            yield pytest.param(call, v, InvalidInputError, id=f"{arg}={v!r}")
        for v in schema:
            yield pytest.param(call, v, InstanceFormatError, id=f"{arg}={v!r}")


@pytest.mark.parametrize("call, value, error", _rejection_cases())
def test_entry_points_reject_bad_arguments(call, value, error):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error

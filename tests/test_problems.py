"""Tests for the problem generators, orderings, and the noise model."""

import hashlib
import io
import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

import kaczmarz_lab as kl

DATA = Path(__file__).parent / "data"


class TestGravity:
    @pytest.mark.parametrize(
        "d,target,rtol",
        [(0.01, 10.21, 0.05), (0.02, 415.7, 0.05)],
    )
    def test_condition_numbers(self, d, target, rtol):
        p = kl.gravity(128, d)
        s = np.linalg.svd(p.A, compute_uv=False)
        assert abs(s[0] / s[-1] - target) / target < rtol

    def test_condition_number_singular_case(self):
        # d = 0.4 at n = 128 is numerically singular; the condition number
        # is only meaningful to its order of magnitude (~2e19)
        p = kl.gravity(128, 0.4)
        s = np.linalg.svd(p.A, compute_uv=False)
        assert abs(np.log10(s[0] / s[-1]) - np.log10(1.95e19)) <= 1.0

    def test_exactly_symmetric(self):
        A = kl.gravity(64, 0.1).A
        assert np.array_equal(A, A.T)

    def test_consistent(self):
        p = kl.gravity(32, 0.06)
        p.validate()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            kl.gravity(32, 0.0)
        with pytest.raises(ValueError):
            kl.gravity(1, 0.1)

    @pytest.mark.parametrize("d", [np.nan, np.inf])
    def test_non_finite_depth_rejected(self, d):
        with pytest.raises(ValueError, match="depth d"):
            kl.gravity(32, d)


class TestBaart:
    def test_severely_ill_conditioned(self, baart32):
        s = np.linalg.svd(baart32.A, compute_uv=False)
        assert s[0] / s[-1] > 1e15

    def test_consistent_by_construction(self, baart32):
        resid = np.linalg.norm(baart32.A @ baart32.x_bar - baart32.b_bar)
        assert resid <= 1e-10 * np.linalg.norm(baart32.b_bar)

    def test_singular_values_decay_fast(self, baart32):
        # super-geometric decay (ratio <= 0.5) beyond index 5, checked down
        # to the double-precision noise floor where computed singular
        # values stagnate
        s = np.linalg.svd(baart32.A, compute_uv=False)
        floor = 1e-13 * s[0]
        for k in range(5, len(s) - 1):
            if s[k + 1] <= floor:
                break
            assert s[k + 1] / s[k] <= 0.5

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            kl.baart(31)


def _trace_ray(x_lines, N, x0, y0, a, b):
    """Reference: intersection lengths of one ray with the N x N grid."""
    pts = []
    if abs(a) > 1e-14:
        tx = (x_lines - x0) / a
        pts.append(np.stack([tx, x_lines, b * tx + y0], axis=1))
    if abs(b) > 1e-14:
        ty = (x_lines - y0) / b
        pts.append(np.stack([ty, a * ty + x0, x_lines], axis=1))
    P = np.concatenate(pts)
    P = P[np.argsort(P[:, 0], kind="stable")]
    xs, ys = P[:, 1], P[:, 2]
    half = N / 2.0
    inside = (
        (xs >= -half - 1e-10)
        & (xs <= half + 1e-10)
        & (ys >= -half - 1e-10)
        & (ys <= half + 1e-10)
    )
    xs, ys = xs[inside], ys[inside]
    if xs.size < 2:
        return np.empty(0, dtype=int), np.empty(0)
    keep = np.ones(xs.size, dtype=bool)
    keep[1:] = (np.abs(np.diff(xs)) > 1e-10) | (np.abs(np.diff(ys)) > 1e-10)
    xs, ys = xs[keep], ys[keep]
    seg = np.sqrt(np.diff(xs) ** 2 + np.diff(ys) ** 2)
    xm = 0.5 * (xs[:-1] + xs[1:])
    ym = 0.5 * (ys[:-1] + ys[1:])
    good = seg > 1e-12
    col = np.floor(xm[good] + N / 2).astype(int)
    row = np.floor(N / 2 - ym[good]).astype(int)
    val = seg[good]
    ok = (col >= 0) & (col < N) & (row >= 0) & (row < N)
    return col[ok] * N + row[ok], val[ok]


def _paralleltomo_loop(N, n_angles, rays_per_angle, width=None):
    """Reference: the tomography matrix traced one ray at a time; (A, kept_rays)."""
    if width is None:
        width = float(rays_per_angle - 1) if rays_per_angle > 1 else 0.0
    x_lines = np.arange(N + 1) - N / 2
    angles = np.arange(n_angles) * (180.0 / n_angles)
    tau = np.linspace(-width / 2.0, width / 2.0, rays_per_angle) if rays_per_angle > 1 else np.zeros(1)
    rows, kept = [], []
    for ia, theta in enumerate(angles):
        rad = np.deg2rad(theta)
        ct, st = np.cos(rad), np.sin(rad)
        for ir, t0 in enumerate(tau):
            idx, val = _trace_ray(x_lines, N, ct * t0, st * t0, -st, ct)
            r = np.zeros(N * N)
            np.add.at(r, idx, val)
            if r.any():
                rows.append(r)
                kept.append(ia * rays_per_angle + ir)
    return np.array(rows), kept


class TestParalleltomo:
    @pytest.mark.parametrize("args", [
        (24, 32, 32, None),
        (24, 32, 32, 24 * np.sqrt(2.0)),  # edge rays miss at near-axis angles
        (16, 16, 16, None),
        (8, 5, 1, None),                  # one ray per angle
        (12, 7, 9, 3.0),
        (7, 6, 11, None),                 # odd N
        (9, 4, 13, 9 * np.sqrt(2.0)),     # odd N; 45-degree rays through grid corners
        (10, 4, 10, None),                # 45-degree rays through grid corners
        (6, 3, 4, 0.0),                   # every ray of an angle on one line
    ])
    def test_matches_per_ray_loop(self, args):
        # the per-angle vectorized tracer reproduces the per-ray loop bit for bit
        A_ref, kept_ref = _paralleltomo_loop(*args)
        p = kl.paralleltomo(*args)
        assert np.array_equal(p.A, A_ref)
        assert p.params["kept_rays"] == kept_ref

    def test_matrix_bytes(self):
        # sha256 of the matrix as traced one ray at a time
        A = kl.paralleltomo(24, 32, 32).A
        assert hashlib.sha256(A.tobytes()).hexdigest() == (
            "2af92724539d270f0d1c1075cbdc75bcddcb64ed7139cb9067c52a490b88cd73"
        )

    @pytest.mark.parametrize("N", [3, 4, 5, 7, 9])
    def test_rays_cross_the_whole_grid(self, N):
        # with unit ray spacing at 0 and 90 degrees every ray runs through
        # the centers of one pixel column or row: N pixels, length 1 each,
        # for odd N as for even (the grid lines are the pixel edges)
        A = kl.paralleltomo(N, 2, N).A
        assert A.shape == (2 * N, N * N)
        np.testing.assert_array_equal(A.sum(axis=1), float(N))
        np.testing.assert_array_equal(np.count_nonzero(A, axis=1), N)
        # the first vertical ray is the image's leftmost column
        np.testing.assert_array_equal(np.flatnonzero(A[0]), np.arange(N))

    @pytest.mark.parametrize("width", [np.nan, np.inf, -1.0])
    def test_bad_width_rejected(self, width):
        with pytest.raises(ValueError, match="width"):
            kl.paralleltomo(4, 3, 3, width=width)

    def test_shape_and_rank(self, tomo, tomo_svd):
        # all rays hit the grid at unit ray spacing: square 1024 x 1024
        assert tomo.m == 1024 and tomo.n == 1024
        assert tomo_svd.rank > 1000

    def test_wide_detector_drops_rows(self):
        # the full-diagonal detector makes edge rays miss at near-axis
        # angles; those rows are dropped, not zero-padded
        p = kl.paralleltomo(32, 32, 32, width=32 * np.sqrt(2.0))
        assert p.m < 1024
        assert len(p.params["kept_rays"]) == p.m
        kl.row_norms_squared(p.A)  # no zero rows

    def test_row_sums_are_chord_lengths(self, tomo):
        # the entries of a row sum to the ray's total intersection length
        # with the image square, at most the diagonal N * sqrt(2); rays of
        # the first (vertical) projection cross the full height exactly
        sums = tomo.A.sum(axis=1)
        assert np.all(sums <= 32 * np.sqrt(2.0) + 1e-9)
        np.testing.assert_allclose(sums[:32], 32.0, atol=1e-9)

    @staticmethod
    def _assert_block_orthogonal(rows):
        sup = (rows != 0).astype(np.int32)
        overlap = sup @ sup.T
        assert not (overlap - np.diag(np.diag(overlap))).any()

    def test_axis_angle_rays_structurally_orthogonal(self, tomo):
        # at unit ray spacing the vertical rays of the first projection run
        # through distinct pixel columns: exactly disjoint supports
        self._assert_block_orthogonal(tomo.A[:32])

    def test_wide_detector_all_angles_orthogonal(self):
        # ray spacing sqrt(2)N/31 exceeds the pixel diagonal, so rays of
        # any one angle never share a pixel, whatever the angle
        p = kl.paralleltomo(32, 32, 32, width=32 * np.sqrt(2.0))
        angles = np.array(p.params["kept_rays"]) // 32
        for a in range(32):
            self._assert_block_orthogonal(p.A[angles == a])

    def test_phantom_in_pixel_order(self, tomo):
        x = kl.shepp_logan_like(32)
        assert x.shape == (1024,)
        assert np.array_equal(tomo.x_bar, x)
        assert x.max() > x.min()  # piecewise constant, nontrivial

    def test_consistent(self, tomo):
        tomo.validate()


class TestOrderings:
    def test_identity_permutation_is_noop(self):
        p = kl.gravity(16, 0.1)
        q = kl.apply_ordering(p, kl.RowOrdering(np.arange(16), label="id"))
        assert np.array_equal(p.A, q.A) and np.array_equal(p.b_bar, q.b_bar)

    def test_permutation_then_inverse(self):
        p = kl.gravity(16, 0.1)
        o = kl.random_ordering(16, seed=3)
        q = kl.apply_ordering(kl.apply_ordering(p, o), o.inverse())
        assert np.array_equal(p.A, q.A) and np.array_equal(p.b_bar, q.b_bar)

    def test_singular_values_invariant(self, tomo):
        o = kl.random_ordering(tomo.m, seed=7)
        s0 = np.linalg.svd(tomo.A, compute_uv=False)
        s1 = np.linalg.svd(kl.apply_ordering(tomo, o).A, compute_uv=False)
        np.testing.assert_allclose(s0, s1, rtol=1e-10, atol=1e-12 * s0[0])

    def test_m_one_is_identity(self):
        assert kl.random_ordering(1, seed=99).perm.tolist() == [0]

    def test_deterministic(self):
        a = kl.random_ordering(100, seed=5)
        b = kl.random_ordering(100, seed=5)
        assert np.array_equal(a.perm, b.perm)

    def test_golden_permutation(self):
        golden = np.loadtxt(DATA / "perm_m1024_seed7.csv", dtype=int)
        assert np.array_equal(kl.random_ordering(1024, seed=7).perm, golden)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl.apply_ordering(kl.gravity(16, 0.1), kl.random_ordering(8, 0))

    def test_not_a_permutation_rejected(self):
        with pytest.raises(ValueError):
            kl.RowOrdering(np.array([0, 0, 2]))


def _gravity8_sharp_maps():
    p = kl.gravity(8, 0.1)
    return kl.sharp_maps(p.A, kl.build_L(p.A, 1.0), kl.svd(p.A))


@pytest.mark.parametrize("call", [
    lambda: kl.gravity(2.5, 0.1),
    lambda: kl.gravity(True, 0.1),
    lambda: kl.baart(6.0),
    lambda: kl.paralleltomo(4.5, 2, 2),
    lambda: kl.paralleltomo(4, 2.5, 2),
    lambda: kl.paralleltomo(4, 2, 2.0),
    lambda: kl.random_ordering(4.5, 0),
    lambda: kl.cgls(np.eye(3), np.ones(3), 2.5),
    lambda: kl.expected_norms(_gravity8_sharp_maps(), 1e-3, [1], n_mc=2.5),
], ids=["gravity-n", "gravity-bool", "baart-n", "tomo-N", "tomo-angles", "tomo-rays",
        "ordering-m", "cgls-k_max", "expected_norms-n_mc"])
def test_non_integer_size_rejected(call):
    # gravity(2.5, 0.1) used to build a 3-by-3 problem recording n = 2.5, and
    # paralleltomo(4, 2.5, 2) traced 3 angles 72 degrees apart; the others
    # died with a TypeError or numpy's AxisError
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_numpy_integer_sizes_accepted():
    assert kl.gravity(np.int64(4), 0.1).A.shape == (4, 4)
    assert kl.random_ordering(np.int32(3), 0).m == 3


class TestNoise:
    def test_sigma_zero_exact(self):
        b = np.linspace(0.0, 1.0, 50)
        out = kl.add_noise(b, kl.NoiseModel(sigma=0.0, seed=1))
        assert np.array_equal(out, b)

    def test_sample_mean(self):
        n = 100_000
        e = kl.add_noise(np.zeros(n), kl.NoiseModel(sigma=1.0, seed=12))
        assert abs(e.mean()) <= 4.0 / np.sqrt(n)

    def test_sample_variance(self):
        n = 100_000
        sigma = 0.3
        e = kl.add_noise(np.zeros(n), kl.NoiseModel(sigma=sigma, seed=13))
        assert abs(e.var() - sigma**2) <= 0.05 * sigma**2

    def test_reproducible(self):
        nm = kl.NoiseModel(sigma=0.1, seed=21)
        b = np.ones(64)
        assert np.array_equal(kl.add_noise(b, nm), kl.add_noise(b, nm))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            kl.NoiseModel(sigma=-1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            kl.NoiseModel(sigma=sigma)


class TestContainerFormat:
    def test_roundtrip(self, tmp_path):
        p = kl.gravity(24, 0.05)
        path = tmp_path / "gravity24.kcz"
        kl.save_problem(p, path)
        q = kl.load_problem(path)
        assert q.name == p.name and q.params == p.params
        assert np.array_equal(q.A, p.A)
        assert np.array_equal(q.x_bar, p.x_bar)
        assert np.array_equal(q.b_bar, p.b_bar)

    def test_container_bytes_deterministic(self, tmp_path):
        p = kl.baart(8)
        a, b = tmp_path / "a.kcz", tmp_path / "b.kcz"
        kl.save_problem(p, a)
        kl.save_problem(p, b)
        assert a.read_bytes() == b.read_bytes()


def _doctored(tmp_path, **members):
    """A container of gravity(12, 0.1) with the named members replaced.

    Each keyword names a .npy payload, or ``header``, and maps it to a
    function of its decoded value; a function that returns None drops it.
    """
    good, bad = tmp_path / "good.kcz", tmp_path / "bad.kcz"
    kl.save_problem(kl.gravity(12, 0.1), good)
    with zipfile.ZipFile(good) as src, zipfile.ZipFile(bad, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            name = info.filename.removesuffix(".npy").removesuffix(".json")
            if name in members:
                decode = json.loads if name == "header" else lambda d: np.load(io.BytesIO(d))
                value = members[name](decode(data))
                if value is None:
                    continue
                buf = io.BytesIO()
                if name == "header":
                    buf.write(json.dumps(value).encode())
                else:
                    np.save(buf, value)
                data = buf.getvalue()
            dst.writestr(info, data)
    return bad


class TestContainerRejectsInconsistent:
    def test_untouched_copy_loads(self, tmp_path):
        q = kl.load_problem(_doctored(tmp_path))
        assert q.m == q.n == 12

    @pytest.mark.parametrize("name, doctor, match", [
        pytest.param("x_bar", lambda v: v[:-1], "x_bar must have shape", id="x_bar-short"),
        pytest.param("b_bar", lambda v: np.append(v, 0.0), "b_bar must have shape", id="b_bar-long"),
        pytest.param("b_bar", lambda v: v[:1], "b_bar must have shape", id="b_bar-broadcastable"),
        pytest.param("A", np.ravel, "A must be 2-d", id="A-flat"),
    ])
    def test_wrong_shape(self, tmp_path, name, doctor, match):
        with pytest.raises(ValueError, match=match):
            kl.load_problem(_doctored(tmp_path, **{name: doctor}))

    @pytest.mark.parametrize("name", ["A", "x_bar", "b_bar"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite(self, tmp_path, name, value):
        def doctor(arr):
            arr = arr.copy()
            arr.flat[3] = value
            return arr

        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            kl.load_problem(_doctored(tmp_path, **{name: doctor}))

    @pytest.mark.parametrize("name", ["A", "x_bar", "b_bar"])
    @pytest.mark.parametrize("doctor", [lambda v: v + 1e-3j, lambda v: v.astype(str)],
                             ids=["complex", "string"])
    def test_non_real(self, tmp_path, name, doctor):
        with pytest.raises(ValueError, match=f"{name} must be real"):
            kl.load_problem(_doctored(tmp_path, **{name: doctor}))

    @pytest.mark.parametrize("doctor, match", [
        pytest.param(lambda h: [h], "header must be a table", id="header-list"),
        pytest.param(lambda h: "gravity", "header must be a table", id="header-string"),
        *(pytest.param(lambda h, k=k: {key: v for key, v in h.items() if key != k},
                       "header must be a table", id=f"no-{k}")
          for k in ("name", "params", "m", "n")),
        pytest.param(lambda h: None, "header.json", id="no-header"),
    ])
    def test_bad_header(self, tmp_path, doctor, match):
        with pytest.raises(ValueError, match=match):
            kl.load_problem(_doctored(tmp_path, header=doctor))

    @pytest.mark.parametrize("name", ["A", "x_bar", "b_bar"])
    def test_missing_payload(self, tmp_path, name):
        with pytest.raises(ValueError, match=f"{name}.npy"):
            kl.load_problem(_doctored(tmp_path, **{name: lambda v: None}))

    def test_inconsistent(self, tmp_path):
        def doctor(b):
            b = b.copy()
            b[5] *= 1.0 + 1e-6
            return b

        with pytest.raises(ValueError, match="not consistent"):
            kl.load_problem(_doctored(tmp_path, b_bar=doctor))

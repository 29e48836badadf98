"""Dense linear-algebra helpers: determinants, spectra, kernels, polynomials."""

import numpy as np
import pytest

from hierdde import linalg
from hierdde.errors import DimensionError


def test_det_matches_eigenvalue_product():
    rng = np.random.default_rng(101)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        dv = np.linalg.det(m)
        pv = np.prod(linalg.eigenvalues(m))
        assert abs(dv - pv) <= 1e-9 * (1.0 + abs(dv))


def test_square_input_enforced():
    with pytest.raises(DimensionError):
        linalg.rank(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        linalg.eigenvalues(np.zeros(4))


def test_eigenvalue_ordering():
    assert np.allclose(linalg.eigenvalues(np.diag([2.0, -1.0])), [-1.0, 2.0])
    # ties on the real part are broken by the imaginary part
    vals = linalg.eigenvalues(np.diag([1.0 + 1.0j, 1.0 - 1.0j]))
    assert np.allclose(vals, [1.0 - 1.0j, 1.0 + 1.0j])


def test_eigenvalues_defective_matrix():
    vals = linalg.eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(vals, [0.0, 0.0], atol=1e-12)


def test_svd_shapes_and_reconstruction():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    r = linalg.svd(m)
    assert np.allclose(r.s, [1.0, 0.0])
    assert np.allclose(r.U @ np.diag(r.s) @ r.Vh, m, atol=1e-14)
    assert np.all(np.diff(r.s) <= 0)


def test_rank_examples():
    assert linalg.rank(np.eye(3, dtype=complex)) == 3
    assert linalg.rank(np.zeros((2, 2), dtype=complex)) == 0
    assert linalg.rank(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)) == 1


def test_kernel_vectors_nilpotent():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    U1, V1 = linalg.kernel_vectors(m)
    assert U1.shape == (2, 1) and V1.shape == (2, 1)
    # V1 spans the kernel (first axis), U1 the cokernel (second axis);
    # only magnitudes are pinned down, the phases are arbitrary
    assert abs(V1[0, 0]) == pytest.approx(1.0)
    assert abs(V1[1, 0]) <= 1e-12
    assert abs(U1[1, 0]) == pytest.approx(1.0)
    assert abs(U1[0, 0]) <= 1e-12
    assert np.linalg.norm(U1.conj().T @ m @ V1) <= 1e-12


def test_kernel_vectors_full_rank_empty():
    U1, V1 = linalg.kernel_vectors(np.eye(3, dtype=complex))
    assert U1.shape == (3, 0) and V1.shape == (3, 0)


def test_kernel_vectors_random_rank_deficient():
    rng = np.random.default_rng(202)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, d))
        u = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        v = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        m = u @ v.conj().T
        assert linalg.rank(m) == r
        U1, V1 = linalg.kernel_vectors(m)
        assert U1.shape == (d, d - r) and V1.shape == (d, d - r)
        smax = linalg.svd(m).s[0]
        assert np.linalg.norm(U1.conj().T @ m @ V1) <= 10 * linalg.RANK_TOL * smax
        assert np.allclose(U1.conj().T @ U1, np.eye(d - r), atol=1e-12)
        assert np.allclose(V1.conj().T @ V1, np.eye(d - r), atol=1e-12)


def test_spectral_norm():
    assert linalg.spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    assert linalg.spectral_norm(np.zeros((2, 2))) == 0.0


def _one_row(coeffs):
    """Roots and count of one polynomial, as the row of a one-row batch."""
    roots, neff = linalg.poly_roots_batch(np.asarray(coeffs, complex)[None, :])
    return roots[0, :max(neff[0], 0)], neff[0]


def test_poly_roots_cubic():
    # (Y - 1)(Y - 2)(Y - 3), coefficients listed from the constant term up
    roots, neff = _one_row([-6.0, 11.0, -6.0, 1.0])
    assert neff == 3
    assert np.allclose(np.sort(roots.real), [1.0, 2.0, 3.0], atol=1e-10)
    assert np.allclose(roots.imag, 0.0, atol=1e-10)


def test_poly_roots_trims_leading_noise():
    # a tiny top coefficient is treated as absent instead of spawning a
    # spurious huge root
    roots, neff = _one_row([-6.0, 11.0, -6.0, 1.0, 1e-16])
    assert neff == 3 and len(roots) == 3
    assert np.all(np.isfinite(roots))


def test_poly_roots_degenerate_inputs():
    roots, neff = _one_row([5.0])  # a constant has no root
    assert neff == 0 and len(roots) == 0
    roots, neff = _one_row([0.0, 0.0])  # an identically zero row is flagged
    assert neff == -1 and len(roots) == 0


def test_poly_roots_batch_refuses_a_non_2d_batch():
    with pytest.raises(DimensionError, match="^coefficient batch must be 2-D$"):
        linalg.poly_roots_batch(np.array([-6.0, 11.0, -6.0, 1.0], complex))


def test_poly_roots_batch_matches_single():
    rng = np.random.default_rng(303)
    rows = []
    for _ in range(8):
        deg = int(rng.integers(0, 4))
        c = np.zeros(4, complex)
        c[: deg + 1] = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        rows.append(c)
    rows.append(np.zeros(4, complex))  # identically-zero row
    roots, neff = linalg.poly_roots_batch(np.array(rows))
    assert neff[-1] == -1
    for i, c in enumerate(rows[:-1]):
        single, _ = _one_row(c)
        assert neff[i] == len(single)
        got = np.sort_complex(roots[i, : neff[i]])
        assert np.allclose(got, np.sort_complex(single), atol=1e-8)
        assert np.all(np.isnan(roots[i, neff[i]:].real))


def test_poly_roots_batch_mixed_degrees_and_degree_one_closed_form():
    # degree-1 rows take -c0 / c1, bit-equal to their 1x1 companion
    # eigenvalue on well-scaled rows; the other rows keep the companion
    # path, and every row its nan padding
    rng = np.random.default_rng(404)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    rows = np.zeros((45, 4), complex)
    rows[:10, :2] = cplx(10, 2) * 10.0 ** rng.integers(-30, 31, (10, 1))
    rows[:10, 0] *= 10.0 ** rng.integers(-8, 9, 10)
    rows[10:15, :3] = cplx(5, 3)
    rows[10:15, 2] *= 1e-13                  # degree 2, trimmed to 1
    rows[15:25] = cplx(10, 4)                # degree 3
    rows[25:35, :3] = cplx(10, 3)            # degree 2
    rows[35:40, 0] = cplx(5)                 # constant: no root
    kind = np.array([1] * 15 + [3] * 10 + [2] * 10 + [0] * 5 + [-1] * 5)
    order = rng.permutation(45)              # the last five rows are zero
    rows, kind = rows[order], kind[order]
    roots, neff = linalg.poly_roots_batch(rows)

    assert np.array_equal(neff, kind)
    one = np.nonzero(kind == 1)[0]
    companion = (-rows[one, 0] / rows[one, 1])[:, None, None]
    assert np.array_equal(roots[one, 0], np.linalg.eigvals(companion)[:, 0])
    for i in np.nonzero(kind >= 2)[0]:
        want, _ = _one_row(rows[i])
        assert np.array_equal(roots[i, :kind[i]], want)
        assert np.allclose(np.polyval(rows[i, :kind[i] + 1][::-1], want), 0,
                           atol=1e-9)
    for i in range(45):
        assert np.all(np.isnan(roots[i, max(kind[i], 0):]))


def test_cluster_points_groups_nearby():
    pts = np.array([0.0, 1e-9, 1.0, 1.0 + 5e-9j, 5.0], dtype=complex)
    centers, counts, labels = linalg.cluster_points(pts, 1e-8)
    assert len(centers) == 3
    assert list(counts) == [2, 2, 1]
    assert np.allclose(centers, [5e-10, 1.0 + 2.5e-9j, 5.0])
    for p, lab in zip(pts, labels):
        assert abs(p - centers[lab]) <= 1e-8


def test_cluster_points_single_linkage_chain():
    # pairwise-close points merge transitively even when the ends are far apart
    pts = np.array([0.0, 0.9e-8, 1.8e-8], dtype=complex)
    centers, counts, _ = linalg.cluster_points(pts, 1e-8)
    assert len(centers) == 1 and counts[0] == 3


def test_cluster_points_empty_and_order():
    centers, counts, labels = linalg.cluster_points(np.array([], dtype=complex), 1e-8)
    assert len(centers) == 0 and len(counts) == 0 and len(labels) == 0
    pts = np.array([2.0, -1.0, 0.5j], dtype=complex)
    centers, _, _ = linalg.cluster_points(pts, 1e-8)
    key = [(z.real, z.imag) for z in centers]
    assert key == sorted(key)


def _single_linkage(z, radius):
    """Component of each point of the graph joining every pair within
    ``radius``: all pairwise distances, then a depth-first search."""
    near = np.abs(z[:, None] - z[None, :]) <= radius
    comp = np.full(z.size, -1)
    for start in range(z.size):
        if comp[start] >= 0:
            continue
        comp[start], stack = start, [start]
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(near[i] & (comp < 0)):
                comp[j] = start
                stack.append(j)
    return comp


def _clouds():
    rng = np.random.default_rng(11)
    for n in (2, 30, 300):
        yield "random", rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n), 0.1
    for n in (50, 400):  # the validation shape: a strip along Im, and Re
        re, im = rng.uniform(-1e-4, 1e-4, n), rng.uniform(-3, 3, n)
        yield "strip-im", re + 1j * im, 0.02
        yield "strip-re", im + 1j * re, 0.02
    steps = np.full(40, 0.9e-3)  # chains many radii long, along each axis
    yield "chain-re", np.cumsum(steps) + 1j * rng.uniform(0, 1e-4, 40), 1e-3
    yield "chain-im", rng.uniform(0, 1e-4, 40) + 1j * np.cumsum(steps), 1e-3
    t = np.linspace(0, 6, 60)  # a zigzag chain: no axis order follows it
    yield "zigzag", 0.09 * t + 1j * (0.1 * (np.arange(60) % 2)), 0.1
    grid = 0.5 * (rng.integers(0, 5, 80) + 1j * rng.integers(0, 5, 80))
    yield "ties", grid, 0.5  # duplicates, and neighbours exactly radius apart
    yield "apart", grid, 0.49  # duplicates alone
    yield "one", np.array([0.3 - 2j]), 1e-8
    yield "none", np.empty(0, complex), 1e-8


@pytest.mark.parametrize("name, z, radius", list(_clouds()),
                         ids=[c[0] + str(c[1].size) for c in _clouds()])
def test_cluster_points_equals_single_linkage_oracle(name, z, radius):
    centers, counts, labels = linalg.cluster_points(z, radius)
    comp = _single_linkage(z, radius)
    assert np.array_equal(labels[:, None] == labels[None, :],
                          comp[:, None] == comp[None, :])
    assert np.array_equal(counts, np.bincount(labels))
    for k, c in enumerate(centers):
        assert c == pytest.approx(z[labels == k].mean(), abs=1e-15)
    key = [(c.real, c.imag) for c in centers]
    assert key == sorted(key)


def _argmax_degrees(work):
    """The effective-degree rule as reductions over the row axis: the
    reference for ``poly_roots_batch``'s column loop."""
    mags = np.abs(work)
    floor = linalg.TRIM_TOL * np.maximum(mags.max(axis=1), 1e-300)
    keep = mags > floor[:, None]
    return np.where(keep.any(axis=1),
                    work.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1), -1)


def _noisy_rows(width):
    """3000 coefficient rows over 400 decades with zeros, signed zeros,
    infinities, nan, all-zero rows, and leading coefficients on, just above
    and just below the noise floor."""
    rng = np.random.default_rng(505 + width)
    N = 3000
    rows = (rng.standard_normal((N, width))
            + 1j * rng.standard_normal((N, width)))
    rows *= 10.0 ** rng.integers(-200, 200, (N, 1))
    rows[rng.random((N, width)) < 0.3] = 0.0
    rows[rng.random((N, width)) < 0.05] = -0.0
    rows[:100] = 0.0                          # all-zero rows
    special = rng.choice([np.inf, -np.inf, np.nan, 1j * np.inf],
                         size=(N, width))
    odd = rng.random((N, width)) < 0.01
    rows[odd] = special[odd]
    # leading coefficients on, just above and just below the noise floor
    mags = np.abs(rows)
    floor = linalg.TRIM_TOL * np.maximum(mags.max(axis=1), 1e-300)
    for i in range(100, 400):
        lead = int(rng.integers(0, width))
        if mags[i, lead] == mags[i].max():
            continue
        rows[i, lead] = np.nextafter(floor[i], [0.0, floor[i], np.inf][i % 3])
    return rows


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_poly_roots_batch_degree_column_loop_is_the_argmax_rule(width):
    rows = _noisy_rows(width)
    with np.errstate(invalid="ignore"):
        want = _argmax_degrees(rows)
        roots, degs = linalg.poly_roots_batch(rows)
    assert degs.dtype == want.dtype
    assert np.array_equal(degs, want)
    assert {-1, width - 1} <= set(degs.tolist())


@pytest.mark.parametrize("degree", [1, 2])
def test_poly_roots_batch_full_degree_slices_match_fancy_indexing(degree):
    # a batch whose rows all have full degree takes slices; with one
    # constant row more it takes the row indices, and the roots agree bit
    # for bit
    rng = np.random.default_rng(degree)
    rows = rng.standard_normal((50, degree + 1)) \
        + 1j * rng.standard_normal((50, degree + 1))
    full, _ = linalg.poly_roots_batch(rows)
    mixed, neff = linalg.poly_roots_batch(
        np.vstack([rows, np.eye(1, degree + 1)]))
    assert neff[-1] == 0
    assert np.array_equal(full, mixed[:-1])


def test_poly_roots_batch_degree_one_batch_is_the_grouped_path():
    # a max_degree 1 batch takes one whole-array pass; padded with a zero
    # column it takes the grouped path, whose degree-1 rows are -c0 / c1
    # too: the degrees and the roots agree bit for bit, specials included
    rows = _noisy_rows(2)
    with np.errstate(invalid="ignore", over="ignore"):
        roots, degs = linalg.poly_roots_batch(rows, max_degree=1)
        padded = np.hstack([rows, np.zeros((rows.shape[0], 1))])
        want_roots, want_degs = linalg.poly_roots_batch(padded, max_degree=2)
    assert degs.dtype == want_degs.dtype
    assert np.array_equal(degs, want_degs)
    assert roots.shape == (rows.shape[0], 1)
    assert np.array_equal(roots, want_roots[:, :1], equal_nan=True)
    assert np.isnan(want_roots[:, 1]).all()
    assert {-1, 0, 1} == set(degs.tolist())


def _masked_degree_one(coeffs):
    """``poly_roots_batch`` at max_degree 1 with every row's masks, as
    written before its no-trim guard: the reference."""
    c0, c1 = coeffs[:, 0], coeffs[:, 1]
    m0, m1 = np.abs(c0), np.abs(c1)
    floor = linalg.TRIM_TOL * np.maximum(np.maximum(m0, m1), 1e-300)
    one = m1 > floor
    roots = np.full((coeffs.shape[0], 1), np.nan + 0j, np.complex128)
    np.divide(-c0, c1, out=roots[:, 0], where=one)
    return roots, np.where(one, 1, np.where(m0 > floor, 0, -1))


@pytest.mark.parametrize("width", [2, 3])
def test_poly_roots_batch_degree_one_guard_is_the_masked_batch(width):
    # a max_degree 1 batch whose rows all keep their degree skips the nan
    # padding and the masks; each row alone, the rows that keep it
    # together, and every row in one batch (and an empty batch) give the
    # masked batch's roots, degrees and dtypes bit for bit.  Width 3 is a
    # d = 2 level with a rank-1 top matrix
    floor = linalg.TRIM_TOL * 3.0  # the noise floor of a row led by 3
    rows = [[1.5 - 0.5j, 0.25 + 2j],                   # finite root
            [0.0, 0.7 - 0.1j],                         # zero root
            [-0.0, -2.0],                              # signed zero root
            [1e-305, 1e-305],                          # under the clamp
            [3.0, np.nextafter(floor, 1.0)],           # just kept
            [3.0, floor],                              # trimmed on the floor
            [3.0, np.nextafter(floor, 0.0)],           # trimmed below it
            [3.0, 0.0],                                # constant
            [0.0, 0.0],                                # identically zero
            [np.nan, 1.0], [1.0, np.nan],              # nan input
            [np.inf, 1.0], [1.0, 1j * np.inf]]         # infinite input
    rows = np.hstack([np.array(rows, np.complex128),
                      np.full((len(rows), width - 2), 1e-3)])
    kept = [0, 1, 2, 3, 4]

    def check(batch):
        roots, neff = linalg.poly_roots_batch(batch, max_degree=1)
        want_roots, want_neff = _masked_degree_one(batch)
        for got, want in ((roots, want_roots), (neff, want_neff)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        return neff

    for i in range(len(rows)):
        check(rows[i:i + 1])
    assert check(rows[kept]).tolist() == [1] * len(kept)
    assert check(rows).tolist() == [1] * 5 + [0] * 3 + [-1] * 5
    check(rows[:0])

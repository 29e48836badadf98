"""Dense linear-algebra helpers: determinants, spectra, kernels, polynomials."""

import numpy as np
import pytest
import scipy.linalg

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
    """Roots and count of one linear row (c0, c1), as a one-row batch."""
    roots, neff = linalg.poly_roots_batch(np.asarray(coeffs, complex)[None, :])
    return roots[0, :max(neff[0], 0)], neff[0]


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, d):
    q, r = np.linalg.qr(_cplx(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _with_singular_values(rng, s):
    """A random matrix ``U diag(s) V^H``."""
    return _unitary(rng, len(s)) @ np.diag(s) @ _unitary(rng, len(s)).conj().T


def test_poly_roots_cubic():
    # (Y - 1)(Y - 2)(Y - 3) as det(B + Y A) with A unitary: the roots are
    # the eigenvalues of -A^H B = Q diag(1, 2, 3) Q^H
    rng = np.random.default_rng(100)
    A, Q = _unitary(rng, 3), _unitary(rng, 3)
    B = -A @ Q @ np.diag([1.0, 2.0, 3.0]) @ Q.conj().T
    roots, neff = linalg.poly_roots_batch(B[None], linalg.svd(A))
    assert neff.tolist() == [3]
    assert np.allclose(roots[0], [1.0, 2.0, 3.0], rtol=0.0, atol=1e-13)


def test_poly_roots_trims_leading_noise():
    # a tiny top coefficient is treated as absent instead of spawning a
    # spurious huge root: a linear row whose c1 is noise is a constant, and
    # a singular value of A below RANK_TOL takes one degree off the pencil
    roots, neff = _one_row([-6.0, 1e-16])
    assert neff == 0 and len(roots) == 0
    rng = np.random.default_rng(101)
    A = _with_singular_values(rng, [1.0, 0.5, 1e-16])
    B = _cplx(rng, 1, 3, 3)
    roots, neff = linalg.poly_roots_batch(B, linalg.svd(A), np.full(1, 9.0))
    assert neff.tolist() == [2] and roots.shape == (1, 2)
    assert np.all(np.isfinite(roots))


def test_poly_roots_degenerate_inputs():
    roots, neff = _one_row([5.0, 0.0])  # a constant has no root
    assert neff == 0 and len(roots) == 0
    roots, neff = _one_row([0.0, 0.0])  # an identically zero row is flagged
    assert neff == -1 and len(roots) == 0
    # det(diag(0, -1) + Y diag(0, 0.3)) = 0 for every Y, and with A = 0
    # the pencil is the constant det B
    B = np.diag([0.0, -1.0])[None]
    roots, neff = linalg.poly_roots_batch(B, linalg.svd(np.diag([0.0, 0.3])),
                                          np.ones(1))
    assert neff.tolist() == [-1] and np.isnan(roots).all()
    roots, neff = linalg.poly_roots_batch(np.eye(2)[None],
                                          linalg.svd(np.zeros((2, 2))),
                                          np.ones(1))
    assert neff.tolist() == [0] and roots.shape == (1, 0)


def test_poly_roots_batch_refuses_a_non_2d_batch():
    with pytest.raises(DimensionError, match=r"^linear rows must be \(N, 2\), "
                       r"got shape \(4,\)$"):
        linalg.poly_roots_batch(np.array([-6.0, 11.0, -6.0, 1.0], complex))
    with pytest.raises(DimensionError, match=r"^pencil rows must be "
                       r"\(N, 2, 2\), got shape \(3, 3, 3\)$"):
        linalg.poly_roots_batch(np.zeros((3, 3, 3)), linalg.svd(np.eye(2)))


# (d, singular values of A): full rank and rank-deficient pencils
_PENCILS = [(2, [1.0, 0.4]), (2, [0.7, 0.0]), (3, [1.0, 0.6, 0.3]),
            (3, [0.8, 0.0, 0.0]), (3, [1.0, 0.5, 0.0]),
            (4, [1.0, 0.7, 0.5, 0.2]), (4, [0.9, 0.4, 0.0, 0.0])]


def test_poly_roots_batch_matches_single():
    # each row alone gives its bits in the batch: linear rows, and pencils
    # of full and deficient rank, with a nan row among them
    rng = np.random.default_rng(303)
    rows = _cplx(rng, 20, 2)
    rows[3, 0], rows[5, 1] = np.nan, 0.0
    roots, neff = linalg.poly_roots_batch(rows)
    assert neff[3] == -1 and neff[5] == 0
    for i in range(20):
        one = linalg.poly_roots_batch(rows[i:i + 1])
        assert np.array_equal(one[0][0], roots[i], equal_nan=True)
        assert one[1][0] == neff[i]
    for d, s in _PENCILS:
        pencil = linalg.svd(_with_singular_values(rng, s))
        B = _cplx(rng, 20, d, d)
        B[7, 0, 0] = np.nan
        radii = 1.0 + rng.uniform(0.0, 3.0, 20)
        roots, neff = linalg.poly_roots_batch(B, pencil, radii)
        r = int(np.count_nonzero(s))
        assert roots.shape == (20, r) and neff[7] == -1
        assert np.isnan(roots[7]).all() and (np.delete(neff, 7) == r).all()
        for i in range(20):
            one = linalg.poly_roots_batch(B[i:i + 1], pencil, radii[i:i + 1])
            assert np.array_equal(one[0][0], roots[i], equal_nan=True), (d, s)
            assert one[1][0] == neff[i]


def test_poly_roots_batch_mixed_degrees_and_degree_one_closed_form():
    # linear rows take -c0 / c1, bit-equal to their 1x1 companion
    # eigenvalue on well-scaled rows, and rows of degree 1, 0 and -1 mix in
    # one batch with their nan padding.  A pencil batch mixes rows of full
    # degree, of a lost degree and identically zero ones: A = diag(0.5,
    # 0.3, 0) is its own singular basis, so a zero B[2, 2] drops the Y**2
    # term and a zero row of B makes every term vanish
    rng = np.random.default_rng(404)
    rows = np.zeros((25, 2), complex)
    rows[:10] = _cplx(rng, 10, 2) * 10.0 ** rng.integers(-30, 31, (10, 1))
    rows[:10, 0] *= 10.0 ** rng.integers(-8, 9, 10)
    rows[10:15] = _cplx(rng, 5, 2)
    rows[10:15, 1] *= 1e-13                  # degree 1, trimmed to 0
    rows[15:20, 0] = _cplx(rng, 5)           # constant: no root
    kind = np.array([1] * 10 + [0] * 10 + [-1] * 5)
    order = rng.permutation(25)              # the last five rows are zero
    rows, kind = rows[order], kind[order]
    roots, neff = linalg.poly_roots_batch(rows)
    assert np.array_equal(neff, kind)
    one = np.nonzero(kind == 1)[0]
    companion = (-rows[one, 0] / rows[one, 1])[:, None, None]
    assert np.array_equal(roots[one, 0], np.linalg.eigvals(companion)[:, 0])
    assert np.isnan(roots[kind < 1]).all()

    A = np.diag([0.5, 0.3, 0.0])
    B = _cplx(rng, 30, 3, 3)
    B[10:20, 2, 2] = 0.0
    B[20:, 2, :] = 0.0
    kind = np.array([2] * 10 + [1] * 10 + [-1] * 10)
    radii = np.full(30, 1.0 + np.abs(B).sum(axis=(1, 2)).max() / 0.3)
    roots, neff = linalg.poly_roots_batch(B, linalg.svd(A), radii)
    assert np.array_equal(neff, kind)
    for i in range(20):
        want = scipy.linalg.eigvals(B[i], -A)
        want = np.sort_complex(want[np.isfinite(want)])
        got = roots[i, :kind[i]]
        assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())
        assert np.isnan(roots[i, kind[i]:]).all()
    assert np.isnan(roots[20:]).all()


@pytest.mark.parametrize("degree", [1, 2])
def test_poly_roots_batch_full_degree_slices_match_fancy_indexing(degree):
    # a d = 2 batch whose rows are all finite solves them at once; with a
    # non-finite row more it takes the finite rows' indices, and the roots
    # agree bit for bit, at rank 1 (degree 1) and at full rank (degree 2)
    rng = np.random.default_rng(degree)
    pencil = linalg.svd(_with_singular_values(rng, [1.0, 0.4 * (degree - 1)]))
    B = _cplx(rng, 50, 2, 2)
    radii = 1.0 + rng.uniform(0.0, 3.0, 50)
    full, neff = linalg.poly_roots_batch(B, pencil, radii)
    mixed, mixed_neff = linalg.poly_roots_batch(
        np.concatenate([B, np.full((1, 2, 2), np.inf)]), pencil,
        np.append(radii, 1.0))
    assert (neff == degree).all() and mixed_neff[-1] == -1
    assert np.array_equal(full, mixed[:-1])
    assert np.array_equal(neff, mixed_neff[:-1])


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
    reference for the degree test of ``poly_roots_batch``'s linear rows."""
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


@pytest.mark.parametrize("width", [2])  # linear rows (c0, c1)
def test_poly_roots_batch_degree_column_loop_is_the_argmax_rule(width):
    rows = _noisy_rows(width)
    with np.errstate(invalid="ignore"):
        want = _argmax_degrees(rows)
        roots, degs = linalg.poly_roots_batch(rows)
    assert degs.dtype == want.dtype
    assert np.array_equal(degs, want)
    assert {-1, width - 1} <= set(degs.tolist())


def _masked_degree_one(coeffs):
    """``poly_roots_batch`` on linear rows with every row's masks, as
    written before its no-trim guard: the reference."""
    c0, c1 = coeffs[:, 0], coeffs[:, 1]
    m0, m1 = np.abs(c0), np.abs(c1)
    floor = linalg.TRIM_TOL * np.maximum(np.maximum(m0, m1), 1e-300)
    one = m1 > floor
    roots = np.full((coeffs.shape[0], 1), np.nan + 0j, np.complex128)
    np.divide(-c0, c1, out=roots[:, 0], where=one)
    return roots, np.where(one, 1, np.where(m0 > floor, 0, -1))


@pytest.mark.parametrize("width", [2])  # linear rows (c0, c1)
def test_poly_roots_batch_degree_one_guard_is_the_masked_batch(width):
    # a batch of linear rows that all keep their degree skips the nan
    # padding and the masks; each row alone, the rows that keep it
    # together, and every row in one batch (and an empty batch) give the
    # masked batch's roots, degrees and dtypes bit for bit
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
    rows = np.array(rows, np.complex128).reshape(-1, width)
    kept = [0, 1, 2, 3, 4]

    def check(batch):
        roots, neff = linalg.poly_roots_batch(batch)
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


def test_a_d1_lead_solves_as_its_linear_rows_bit_for_bit():
    # a d = 1 level passes its constants c0 and its one lead a_k, with no
    # (N, 2) rows built: the roots and degrees are those of the linear
    # rows (c0, a_k), bit for bit, on the keep-all path and on the masked
    # path (a lead trimmed by a larger c0, a nan in c0, a zero lead whose
    # zero rows vanish identically), for each row alone and for none
    rng = np.random.default_rng(707)
    c0 = _cplx(rng, 400) * 10.0 ** rng.integers(-20, 8, 400)
    c0[:4] = [0.0, -0.0, 3.0, 1e-305]
    lead = 0.3 - 0.7j
    floor = linalg.TRIM_TOL * 3.0  # the noise floor of a row led by 3
    nan_c0 = c0.copy()
    nan_c0[7] = np.nan

    def check(c0, lead):
        roots, neff = linalg.poly_roots_batch(c0, lead)
        rows = np.column_stack([c0, np.full(c0.shape, lead)])
        want_roots, want_neff = linalg.poly_roots_batch(rows)
        for got, want in ((roots, want_roots), (neff, want_neff)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        return neff

    small = np.abs(c0) <= 3.0
    for batch, a, kept in ((c0, lead, True), (c0[small], 1e-300, False),
                           (c0[:3], np.nextafter(floor, 1.0), True),
                           (c0[:3], floor, False), (nan_c0, lead, False),
                           (c0, 0.0, False)):
        neff = check(batch, a)
        assert (neff == 1).all() == kept
        for i in range(batch.size):
            check(batch[i:i + 1], a)
        check(batch[:0], a)
    assert check(nan_c0, lead)[7] == -1
    assert check(c0, 0.0)[:4].tolist() == [-1, -1, 0, 0]
    with pytest.raises(DimensionError, match=r"^constants of a d = 1 level "
                       r"must be \(N,\), got shape \(3, 2\)$"):
        linalg.poly_roots_batch(np.zeros((3, 2)), 1.0)

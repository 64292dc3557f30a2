"""Matrix layer: arithmetic, invertibility against determinants, CRT transport."""

import math
import pickle
import random
from itertools import combinations, product

import pytest
from hypothesis import given

from conftest import coprojection, matrices, matrix_pairs, per_prime_is_invertible, projection, transpose, zeros
from ringmat.errors import ShapeError, UsageError
from ringmat.matrix import Mat, _is_unimodular, crt_lift_mat, random_invertible, random_matrix
from ringmat.oracle import _det_bareiss, _det_cofactor
from ringmat.ring import ring_spec
from ringmat.smith import snf


def _det(a):
    """The determinant of a's canonical integer lift, mod h."""
    return _det_bareiss(a.to_rows()) % a.ring.h


def test_constructors_and_accessors():
    ring = ring_spec(6)
    a = Mat.from_rows(ring, [[1, 2, 3], [4, 5, 0]])
    assert (a.rows, a.cols) == (2, 3)
    assert a.row(0) == (1, 2, 3)
    assert a.to_rows() == [[1, 2, 3], [4, 5, 0]]
    assert zeros(ring, 2, 2).is_zero()
    assert Mat.identity(ring, 2) == Mat.diagonal(ring, [1, 1])
    assert Mat.diagonal(ring, [2, 3], 2, 3).row(0) == (2, 0, 0)


def test_validation_errors():
    ring = ring_spec(6)
    with pytest.raises(UsageError):
        Mat(ring, 2, 2, (0, 1, 2, 7))  # out of range
    with pytest.raises(UsageError):
        Mat(ring, 2, 2, (0, 1, 2))  # wrong length
    with pytest.raises(UsageError):
        Mat.from_rows(ring, [[1, 2], [3]])  # ragged
    a = zeros(ring, 2, 2)
    b = zeros(ring, 2, 3)
    with pytest.raises(ShapeError):
        a + b
    with pytest.raises(ShapeError):
        b @ b
    with pytest.raises(UsageError):
        a + zeros(ring_spec(4), 2, 2)  # mixed rings


def test_arithmetic_basics():
    ring = ring_spec(6)
    a = Mat.from_rows(ring, [[1, 2], [3, 4]])
    b = Mat.from_rows(ring, [[5, 0], [1, 2]])
    assert (a + b) - b == a
    ident = Mat.identity(ring, 2)
    assert a @ ident == a and ident @ a == a
    # matrix multiplication is not commutative
    assert a @ b != b @ a


def test_matmul_associative_sampled(rng):
    ring = ring_spec(12)
    for _ in range(200):
        a = random_matrix(ring, 2, 3, rng)
        b = random_matrix(ring, 3, 2, rng)
        c = random_matrix(ring, 2, 2, rng)
        assert (a @ b) @ c == a @ (b @ c)


def test_det_multiplicative_sampled():
    for h in (4, 6, 12):
        ring = ring_spec(h)
        rng = random.Random(h)
        for _ in range(1000):
            a = random_matrix(ring, 2, 2, rng)
            b = random_matrix(ring, 2, 2, rng)
            assert _det(a @ b) == (_det(a) * _det(b)) % h
        for _ in range(100):
            a = random_matrix(ring, 3, 3, rng)
            b = random_matrix(ring, 3, 3, rng)
            assert _det(a @ b) == (_det(a) * _det(b)) % h


def test_det_matches_cofactor_oracle():
    ring = ring_spec(12)
    rng = random.Random(1)
    for n in (1, 2, 3):
        for _ in range(100):
            a = random_matrix(ring, n, n, rng)
            assert _det_bareiss(a.to_rows()) == _det_cofactor(a.to_rows())


def test_det_of_diagonal_and_transpose():
    ring = ring_spec(12)
    assert _det(Mat.diagonal(ring, [2, 3])) == 6
    rng = random.Random(2)
    for _ in range(100):
        a = random_matrix(ring, 3, 3, rng)
        assert _det(a) == _det(transpose(a))


def test_invertibility_exhaustive_small():
    """is_invertible and a unit determinant coincide."""
    for h in (2, 3, 4, 6):
        ring = ring_spec(h)
        count = 0
        for entries in product(range(h), repeat=4):
            a = Mat(ring, 2, 2, entries)
            inv_flag = a.is_invertible()
            assert inv_flag == (math.gcd(_det_bareiss(a.to_rows()), h) == 1)
            count += inv_flag
        if h == 2:
            assert count == 6  # the invertible 2x2 matrices over the binary field


def test_crt_matrix_round_trip(rng):
    ring = ring_spec(12)
    for _ in range(200):
        a = random_matrix(ring, 2, 3, rng)
        comps = [projection(a, i) for i in range(ring.t)]
        assert [c.ring.h for c in comps] == [4, 3]
        assert crt_lift_mat(ring, comps) == a
        for i in range(ring.t):
            assert coprojection(a, i).ring.h == 12 // ring.prime_powers[i]


def _crt_per_entry(ring, vecs):
    """The slow reference gluing: one ring.crt call per entry."""
    return tuple(ring.crt([v[k] for v in vecs]) for k in range(len(vecs[0])))


def test_crt_vectors_match_per_entry_crt():
    for h in (8, 12, 60):  # t = 1, 2, 3
        ring = ring_spec(h)
        rng = random.Random(h)
        for _ in range(100):
            comps = [random_matrix(ring.component(i), 3, 2, rng) for i in range(ring.t)]
            lifted = crt_lift_mat(ring, comps)
            assert lifted.entries == _crt_per_entry(ring, [c.entries for c in comps])
            assert [projection(lifted, i) for i in range(ring.t)] == comps


def _revalidated(r):
    return Mat(r.ring, r.rows, r.cols, r.entries)


def test_internal_results_pass_public_validation():
    """Every result built without validation is one the public constructor accepts."""
    for h in (4, 12, 2**63, 30030):
        ring = ring_spec(h)
        rng = random.Random(h % 1000)
        for m, n in ((1, 1), (2, 3), (3, 2), (3, 3)):
            for _ in range(10):
                a = random_matrix(ring, m, n, rng)
                b = random_matrix(ring, m, n, rng)
                c = random_matrix(ring, n, m, rng)
                f = snf(a)
                results = [a + b, a - b, a @ c,
                           f.S, f.D, f.T, Mat.identity(ring, m), Mat.diagonal(ring, [h - 1], m, n),
                           crt_lift_mat(ring, [projection(a, i) for i in range(ring.t)])]
                results += [projection(a, i) for i in range(ring.t)]
                if ring.t > 1:
                    results += [coprojection(a, i) for i in range(ring.t)]
                for r in results:
                    assert _revalidated(r) == r
                    assert type(r.entries) is tuple


def test_clique_code_and_graph_results_pass_public_validation(monkeypatch):
    """Members, transforms and codewords built without validation are canonical."""
    from ringmat import cliques
    from ringmat.cliques import CliqueForm, build_canonical_clique, classify_max_clique, random_clique_form
    from ringmat.codes import RankCode, mrd_code, verify_distance
    from ringmat.graph import GraphSpec

    seen = []

    def recording(fn):
        def wrapper(*args):
            seen.extend(a for a in args if isinstance(a, Mat))
            seen.extend(a for arg in args if isinstance(arg, list) for a in arg if isinstance(a, Mat))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cliques, "crt_lift_mat", recording(crt_lift_mat))
    for h in (4, 12):
        spec = GraphSpec(ring_spec(h), 2, 2, 1)
        seen += [spec.vertex(v) for v in range(0, spec.n_vertices, 7)]
        for alpha in product(*((0, s) for _, s in spec.ring.primes)):
            clique = [Mat._new(spec.ring, 2, 2, x) for x in build_canonical_clique(CliqueForm(spec, alpha))]
            seen += clique
            form = classify_max_clique(spec, build_canonical_clique(random_clique_form(spec, alpha, h)))
            seen += [x for x in (form.S, form.T) if x is not None]
        shift = Mat(spec.ring, 2, 2, (1, 2, 3, 0))
        verify_distance(RankCode(spec.ring, 2, 2, frozenset((x + shift).entries for x in clique), 1, False, None))
    for h in (4, 6, 12):
        code = mrd_code(GraphSpec(ring_spec(h), 2, 2, 1))
        seen += [Mat._new(code.ring, 2, 2, x) for x in (*code.members, *code.basis)]
    assert len(seen) > 1000
    for r in seen:
        assert _revalidated(r) == r
        assert type(r.entries) is tuple


def test_is_invertible_matches_det_unit_route():
    """Deciding mod each prime p_i agrees with gcd(det, h) == 1 on the CRT-lifted determinant."""
    for h in (4, 12, 2**63, 30030):
        ring = ring_spec(h)
        rng = random.Random(h % 1000)
        outcomes = set()
        for n in (1, 2, 3, 4):
            for _ in range(40):
                a = random_matrix(ring, n, n, rng)
                if n > 1 and rng.random() < 0.5:  # rank-deficient mod some p_i
                    p = rng.choice(ring.primes)[0]
                    a = a @ Mat.diagonal(ring, [1] * (n - 1) + [p * rng.randrange(h)])
                flag = a.is_invertible()
                assert flag == (math.gcd(_det_bareiss(a.to_rows()), h) == 1)
                outcomes.add(flag)
        assert outcomes == {True, False}
        assert not random_matrix(ring, 2, 3, rng).is_invertible()


INVERTIBILITY_MODULI = (4, 12, 360, 30030, 510510, 2**63, 2**64 - 59, 2**8 * 3**5 * 7**3)


def _singular_mod_one_prime(ring, n, rng):
    """A random n x n matrix whose last row is, mod one prime p_i only, a combination of the others."""
    p = rng.choice(ring.primes)[0]
    rows = [[rng.randrange(ring.h) for _ in range(n)] for _ in range(n - 1)]
    coeffs = [rng.randrange(ring.h) for _ in rows]
    last = [(sum(c * row[j] for c, row in zip(coeffs, rows)) + p * rng.randrange(ring.h)) % ring.h for j in range(n)]
    return Mat.from_rows(ring, rows + [last])


@pytest.mark.parametrize("h", INVERTIBILITY_MODULI)
def test_is_invertible_matches_per_prime_oracle(h):
    """One elimination mod rad(h) decides as one determinant per prime did."""
    ring = ring_spec(h)
    rng = random.Random(h % 10007)
    outcomes = set()
    for n in range(1, 9):
        for _ in range(8):
            for a in (random_matrix(ring, n, n, rng), _singular_mod_one_prime(ring, n, rng)):
                flag = a.is_invertible()
                assert flag == per_prime_is_invertible(a)
                outcomes.add(flag)
    assert outcomes == {True, False}


@pytest.mark.parametrize("rad", (2, 6, 30, 30030))
def test_is_unimodular_matches_the_determinant_mod_rad(rad):
    """The elimination over Z_rad decides as gcd(det, rad) == 1 does, on random matrices and on ones
    singular mod one prime."""
    ring, rng = ring_spec(rad), random.Random(rad)
    outcomes = set()
    for n in range(1, 8):
        for _ in range(12):
            for a in (random_matrix(ring, n, n, rng), _singular_mod_one_prime(ring, n, rng)):
                flag = _is_unimodular(a.to_rows(), rad)
                assert flag == (math.gcd(_det_bareiss(a.to_rows()), rad) == 1)
                outcomes.add(flag)
    assert outcomes == {True, False}


@pytest.mark.parametrize("h", INVERTIBILITY_MODULI)
def test_is_invertible_matches_per_prime_oracle_on_smith_transforms(h):
    ring = ring_spec(h)
    rng = random.Random(h % 10009)
    for m, n in ((1, 1), (2, 3), (3, 2), (4, 4), (3, 6), (6, 3), (8, 8)):
        for _ in range(3):
            f = snf(random_matrix(ring, m, n, rng))
            for t in (f.S, f.T):
                assert t.is_invertible() and per_prime_is_invertible(t)


def test_public_constructor_still_validates():
    ring = ring_spec(12)
    for entries in ((0, 1, 2, 12), (0, 1, 2, -1), (0, 1, 2)):
        with pytest.raises(UsageError):
            Mat(ring, 2, 2, entries)
    for rows, cols in ((0, 1), (1, 0), (-1, -1)):
        with pytest.raises(ShapeError):
            Mat(ring, rows, cols, ())
    with pytest.raises(ShapeError):
        Mat.identity(ring, 0)
    with pytest.raises(ShapeError):
        Mat.diagonal(ring, [], 0, 2)
    assert Mat(ring, 1, 2, [3, 4]) == Mat(ring, 1, 2, (3, 4))  # entries become a tuple


def test_crt_lift_validates_component_moduli():
    ring = ring_spec(12)
    good = [zeros(ring_spec(4), 2, 2), zeros(ring_spec(3), 2, 2)]
    assert crt_lift_mat(ring, good).is_zero()
    with pytest.raises(UsageError):
        crt_lift_mat(ring, list(reversed(good)))


def test_projection_is_ring_homomorphism(rng):
    ring = ring_spec(12)
    for _ in range(100):
        a = random_matrix(ring, 2, 2, rng)
        b = random_matrix(ring, 2, 2, rng)
        for i in range(ring.t):
            assert projection(a @ b, i) == projection(a, i) @ projection(b, i)
            assert projection(a + b, i) == projection(a, i) + projection(b, i)


def test_random_matrix_deterministic_by_seed():
    ring = ring_spec(6)
    assert random_matrix(ring, 2, 2, 42) == random_matrix(ring, 2, 2, 42)
    a = random_invertible(ring, 2, 7)
    assert a == random_invertible(ring, 2, 7)
    assert a.is_invertible()


@given(matrix_pairs())
def test_det_multiplicative_property(pair):
    a, b = pair
    assert _det(a @ b) == (_det(a) * _det(b)) % a.ring.h


@given(matrices())
def test_transpose_involution_property(a):
    assert transpose(transpose(a)) == a


def test_records_are_immutable_and_keep_their_field_tuple_semantics():
    from ringmat.cliques import ROW_FORM, CliqueForm
    from ringmat.codes import GraphCertificate
    from ringmat.graph import GraphSpec
    from ringmat.orbits import CensusReport
    from ringmat.smith import InvariantFactorArray

    ring, ring2 = ring_spec(6), ring_spec(2)
    a = Mat(ring, 1, 2, [1, 5])
    spec = GraphSpec(ring, 2, 3, 1)
    census_entries = ((((0,),), 1), (((1,),), 1))
    # (record, field names, field values, exact repr); every class takes its fields as constructor arguments
    r6, r2 = "RingSpec(h=6, primes=((2, 1), (3, 1)))", "RingSpec(h=2, primes=((2, 1),))"
    s6 = f"GraphSpec(ring={r6}, m=2, n=3, r=1)"
    a6 = f"Mat(ring={r6}, rows=1, cols=2, entries=(1, 5))"
    records = (
        (ring, ("h", "primes"), (6, ((2, 1), (3, 1))), r6),
        (a, ("ring", "rows", "cols", "entries"), (ring, 1, 2, (1, 5)), a6),
        (spec, ("ring", "m", "n", "r"), (ring, 2, 3, 1), s6),
        (InvariantFactorArray(ring, ((0,), (1,))), ("ring", "omega"), (ring, ((0,), (1,))),
         f"InvariantFactorArray(ring={r6}, omega=((0,), (1,)))"),
        (CensusReport(ring2, 1, 1, census_entries), ("ring", "rows", "cols", "entries"), (ring2, 1, 1, census_entries),
         f"CensusReport(ring={r2}, rows=1, cols=1, entries=((((0,),), 1), (((1,),), 1)))"),
        (CliqueForm(spec, (0, 0), a, None, a), ("graph", "alpha", "S", "T", "B0"), (spec, (0, 0), a, None, a),
         f"CliqueForm(graph={s6}, alpha=(0, 0), S={a6}, T=None, B0={a6})"),
        (GraphCertificate(spec, 216, 216, 2.0, 216, "exact"),
         ("spec", "omega", "alpha", "code_distance", "chi", "coloring_verification"), (spec, 216, 216, 2.0, 216, "exact"),
         f"GraphCertificate(spec={s6}, omega=216, alpha=216, code_distance=2.0, chi=216, coloring_verification='exact')"),
    )
    for record, names, fields, text in records:
        key = fields[0] if record is ring else fields  # a ring hashes as its modulus h alone
        assert hash(record) == hash(key)  # set order, hence stdout, rests on this hash
        assert tuple(getattr(record, name) for name in names) == fields
        assert type(record)(*fields) == record != fields and repr(record) == text
        assert pickle.loads(pickle.dumps(record)) == record
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert len({record for record, *_ in records} | {type(r)(*f) for r, _, f, _ in records}) == len(records)
    assert all(x != y for (x, *_), (y, *_) in combinations(records, 2))
    report, twin = records[4][0], Mat._new(ring2, 1, 1, census_entries)  # a Mat with the census's fields
    assert hash(twin) == hash(report) and twin != report and report != twin
    assert a == Mat._new(ring, 1, 2, (1, 5)) and a != Mat._new(ring_spec(7), 1, 2, (1, 5))
    assert spec == GraphSpec(ring_spec(6), 2, 3, 1) != GraphSpec(ring, 2, 3, 2)
    assert records[5][0] != CliqueForm(GraphSpec(ring, 3, 3, 1), (0, 0), a, None, a) and records[5][0].tag == ROW_FORM

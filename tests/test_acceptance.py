"""Acceptance gate: ten exact checks, one visible verdict line each.

Every numeric comparison in this module is exact rational equality; there
are no tolerances anywhere.  The two runtime bounds are wall-clock caps on
the full check they annotate.  Each test prints its verdict straight to
the terminal so the gate is readable in any log.
"""

import hashlib
import io
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

import ce_oracle as oracle
from deforma import (
    Cochain,
    DeformationState,
    LInftyStructure,
    Vector,
    build_extended,
    ce_differential,
    cohomology,
    compose,
    extend,
    residual,
    restriction_matches,
)
from deforma.catalog import (
    abelian,
    heisenberg3,
    heisenberg_cochain,
    nonabelian2,
    obstructed_cochain,
    sl2,
    suite_algebras,
    suite_structures,
)
from deforma.cli import run as cli_run
from deforma.cohomology import cocycle_space
from deforma.io_formats import render_algebra, render_cochain


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d}: FAIL  {label}")
        raise
    else:
        with capsys.disabled():
            print(f"criterion {number:2d}: PASS  {label}")


def elementary_cochains(dim, p):
    for idx in combinations(range(dim), p):
        for k in range(dim):
            yield Cochain(dim, p, {idx: Vector.basis(dim, k)})


def test_criterion_01_d_squared_zero(capsys):
    with criterion(capsys, 1, "d o d = 0 on every suite algebra, degrees 1-2"):
        start = time.perf_counter()
        count = 0
        for L in suite_algebras().values():
            for p in (1, 2):
                for f in elementary_cochains(L.dim, p):
                    assert ce_differential(L, ce_differential(L, f)).is_zero()
                    count += 1
        elapsed = time.perf_counter() - start
        # dim * (C(dim,1) + C(dim,2)) per algebra: 6 + 18 + 6 + 18 + 18
        assert count == 66
        assert elapsed < 5.0, f"took {elapsed:.2f}s, cap is 5s"


def test_criterion_02_ladder_base_orders(capsys):
    with criterion(capsys, 2, "orders 0 and 1 of the deformation ladder hold"):
        for name, L, alpha1 in suite_structures():
            state = DeformationState.initial(L, alpha1)
            assert residual(state, 0).is_zero(), name
            assert residual(state, 1).is_zero(), name


def test_criterion_03_obstruction_detected(capsys):
    with criterion(
        capsys, 3, "obstructed direction: frozen value, halt at 2, ternary witness"
    ):
        L = abelian(3)
        f = obstructed_cochain()
        square = compose(f, f)
        assert list(square.value_on_basis((0, 1, 2))) == oracle.OBSTRUCTED_SELF_COMPOSE
        state = extend(DeformationState.initial(L, f), 5)
        assert state.order_reached == 1
        assert state.first_obstruction is not None
        assert state.first_obstruction.order == 2
        assert not state.first_obstruction.is_coboundary
        assert any(c != 0 for c in state.first_obstruction.class_coordinates)
        s = LInftyStructure(L, f)
        assert s.l3_table()[(0, 1, 2)].render() == "t^2 * [0,0,1]^*"


def test_criterion_04_unobstructed_path(capsys):
    with criterion(capsys, 4, "unobstructed direction reaches order 5, zero tail"):
        L = abelian(3)
        state = extend(DeformationState.initial(L, heisenberg_cochain()), 5)
        assert state.order_reached == 5
        assert state.first_obstruction is None
        for n in range(2, 6):
            assert state.alpha(n).is_zero()
        s = LInftyStructure(L, heisenberg_cochain())
        assert all(v.is_zero() for v in s.l3_table().values())


def test_criterion_05_relation_suite(capsys):
    with criterion(capsys, 5, "relation suite exact on every structure (under 10s)"):
        start = time.perf_counter()
        for name, L, alpha1 in suite_structures():
            report = LInftyStructure(L, alpha1).verify_relations()
            assert report.passed, (name, report)
            expected = 1008 if L.dim == 2 else 3834
            assert report.total_instances == expected, name
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s, cap is 10s"


def test_criterion_06_homotopy_identity(capsys):
    with criterion(capsys, 6, "homotopy identity on the full spanning set"):
        for name, L, alpha1 in suite_structures():
            s = LInftyStructure(L, alpha1)
            report = s.verify_homotopy_identity()
            assert report.passed, (name, report.violations)
            # spanning set: T+1 plain powers and T-1 starred ones per index
            assert report.checked == L.dim * (2 * s.truncation)


def test_criterion_07_restriction(capsys):
    with criterion(capsys, 7, "extended maps match strict maps on the strict domain"):
        for alpha1 in (obstructed_cochain(), heisenberg_cochain()):
            strict = LInftyStructure(abelian(3), alpha1)
            extended = build_extended(strict)
            assert restriction_matches(strict, extended)


def test_criterion_08_rigidity_regression(capsys):
    with criterion(capsys, 8, "second-cohomology dimensions: 0, 0 and 2"):
        assert cohomology(sl2(), 2).dim_h == 0
        assert cohomology(nonabelian2(), 2).dim_h == 0
        assert cohomology(abelian(2), 2).dim_h == 2


def test_criterion_09_ternary_biconditional(capsys):
    with criterion(
        capsys, 9, "ternary map vanishes iff the cocycle squares to zero"
    ):
        rng = random.Random(20260819)
        zero_side = nonzero_side = 0
        for L in (abelian(3), heisenberg3(), sl2(), nonabelian2()):
            basis = cocycle_space(L, 2)
            for _ in range(6):
                alpha1 = Cochain.zero(L.dim, 2)
                for b in basis:
                    alpha1 = alpha1 + Fraction(rng.randint(-2, 2)) * b
                s = LInftyStructure(L, alpha1)
                table_zero = all(v.is_zero() for v in s.l3_table().values())
                square_zero = compose(alpha1, alpha1).is_zero()
                assert table_zero == square_zero
                zero_side += square_zero
                nonzero_side += not square_zero
        assert zero_side > 0 and nonzero_side > 0


#: (argv template, exit code, sha256 of stdout).  The digests pin the report
#: bytes across commits, not only across two runs of one commit; an empty
#: stdout hashes to e3b0c442...
CLI_EXAMPLES = [
    (["validate", "{h3}"],
     0, "cd6e0f44ff54c4a729f9956983ff72efd7f529d9d5f38a54f32ad0732b2adceb"),
    (["validate", "{broken}"],
     1, "b97b26485705bd0c3d016432d6a0a98abacf68b54f0c898776b42981d3146179"),
    (["validate", "{bad_rational}"],
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["cohomology", "{sl2}", "--degree", "2"],
     0, "99111998901d047db4c04708d99b04d78e66fafc8d1121110cb2f60c44dc87c9"),
    (["cohomology", "{ab2}"],
     0, "72753463bbc86bd094626893ccfcc210f04a22af24220e99b2f6e84070766f89"),
    (["cohomology", "{h3}", "--degree", "2"],
     0, "ae345daf33b56b8917fcfa438cff786c5f771c4f3c956b37c2c82773f76c3085"),
    (["deform", "{ab3}", "--alpha1", "{heis}", "--max-order", "5"],
     0, "48f589912c60686f9b4cb4343c48e671cd6b4da2f06275fa5ea341e097637261"),
    (["deform", "{ab3}", "--alpha1", "{obstructed}", "--max-order", "5"],
     0, "4b8cda1fdd5de7534ae55d29bf2b32992649f173d7c73e3ec8eea727de552963"),
    (["deform", "{ab3}", "--alpha1", "{obstructed}", "--require-order"],
     1, "b88c77601bce29b8494c31e460d7a3989a9be12c0a420d6e7439df855d75d97e"),
    (["deform", "{sl2}", "--alpha1", "{zero}"],
     0, "a625aa473f1fa717e9f6672f131973838dae0f2d1740c3e3d1dcc3acb01989ae"),
    (["deform", "{h3}", "--alpha1", "{non_cocycle}"],
     1, "6750ccc8493e2e241cd499c57b5da837a7f990891161575f517f7b5de5d642cb"),
    (["linfty", "{ab3}", "--alpha1", "{obstructed}"],
     0, "c7d3b46b86463072bb0740829d484d6b768cc8c3796bf2414ce37da1bc557a15"),
    (["linfty", "{sl2}", "--alpha1", "{zero}"],
     0, "f75baa318e3e99a20050b7844dc4d7e926a8889528ccd7fa96f5ee5afa318bfa"),
    (["linfty", "{ab3}", "--alpha1", "{obstructed}", "--variant", "extended"],
     0, "6460c9800805e167977c39962c47495454b5c0ea911270d360c2c5f2bdf4fa8b"),
    (["linfty", "{ab3}", "--alpha1", "{obstructed}", "--truncation", "5"],
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def test_criterion_10_cli_golden(capsys, tmp_path, monkeypatch):
    with criterion(
        capsys, 10, "CLI byte-identical across runs, exit codes honored"
    ):
        monkeypatch.delenv("DEFORMA_TRUNCATION", raising=False)
        # relative file names keep the reports, and so their digests,
        # independent of where the test runs
        monkeypatch.chdir(tmp_path)

        def put(name, text):
            (tmp_path / name).write_text(text, encoding="utf-8")
            return name

        paths = {
            "h3": put("h3.json", render_algebra(heisenberg3())),
            "sl2": put("sl2.json", render_algebra(sl2())),
            "ab2": put("ab2.json", render_algebra(abelian(2))),
            "ab3": put("ab3.json", render_algebra(abelian(3))),
            "broken": put(
                "broken.json",
                '{"brackets":{"1,2":["0","0","1"],"1,3":["1","0","0"]},'
                '"dim":3,"name":"broken"}\n',
            ),
            "bad_rational": put(
                "bad.json", '{"brackets":{"1,2":["1/0","0","0"]},"dim":3,"name":"b"}\n'
            ),
            "heis": put("heis.json", render_cochain(heisenberg_cochain())),
            "obstructed": put("obs.json", render_cochain(obstructed_cochain())),
            "zero": put("zero.json", render_cochain(Cochain.zero(3, 2))),
            "non_cocycle": put(
                "nc.json",
                render_cochain(Cochain(3, 2, {(0, 2): Vector((1, 0, 0))})),
            ),
        }

        def invoke(argv):
            out, err = io.StringIO(), io.StringIO()
            code = cli_run(argv, stdout=out, stderr=err)
            return code, out.getvalue()

        for template, expected_code, digest in CLI_EXAMPLES:
            argv = [part.format(**paths) for part in template]
            code1, out1 = invoke(argv)
            code2, out2 = invoke(argv)
            assert code1 == code2 == expected_code, argv
            assert out1 == out2, argv
            assert hashlib.sha256(out1.encode("utf-8")).hexdigest() == digest, argv
            if out1:
                # reports are canonical single-line JSON
                parsed = json.loads(out1)
                assert parsed["exit_code"] == expected_code

import ast
import hashlib
import importlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import CATALOG_BUILDS, odd_heisenberg, su2_cyclic
from superlie.assoc import grassmann
from superlie.catalog import CATALOG_DIM_CAP, CatalogError, build_catalog, expected_dimension, verify_catalog_facts
from superlie.cohomology import DimensionCapError, verify_cor1
from superlie.cli import main
from superlie.linalg import SparseMatrix, _integral_part
from superlie.scalars import format_scalar, parse_scalar
from superlie.serial import SchemaError, algebra_from_json, algebra_to_json, dumps_canonical, sanitize, scalar_to_str
from tower import Scalar, to_dense


def test_algebra_roundtrip_bit_exact():
    for L in (su2_cyclic(), odd_heisenberg(), build_catalog("su_pq", 2, 1).algebra):
        data = algebra_to_json(L)
        text = json.dumps(data, sort_keys=True)
        again = algebra_from_json(json.loads(text))
        assert again.names == L.names
        assert again.parities == L.parities
        assert again.brackets == L.brackets
        assert json.dumps(algebra_to_json(again), sort_keys=True) == text


def test_drop_eta_certificate_prints_byte_for_byte():
    """sanitize prints every BilinearForm as {"grams", "value_parities"}:
    the verify_cor1 --drop-eta certificate of Lambda1 (x) pq(3) (defect 2)
    prints the text it printed when 2-cocycles had a class of their own,
    pinned by its SHA-256 (13,891 bytes)."""
    entry = build_catalog("pq_n", 3)
    rep = verify_cor1(grassmann(1), entry.algebra, entry.form, drop_eta=True)
    text = dumps_canonical(rep["certificate"])
    assert rep["defect"] == 2 and len(text) == 13891
    assert sorted(json.loads(text)) == ["grams", "value_parities"] and json.loads(text)["value_parities"] == [0]
    assert hashlib.sha256(text.encode()).hexdigest() == "59a8005855d247003c518f927c5772ce18b7a605ef205622bfcf39af6af0359b"


def random_tower_matrix(rng, shape):
    """sum_m sqrt(m) U_m over radicands 1, 2, 3 and 6, each part Gaussian,
    pure imaginary or real at random, and most entries zero."""
    parts = {}
    for m in sorted(rng.sample((1, 2, 3, 6), rng.randint(0, 4))):
        kind = rng.choice(((1, 1), (0, 1), (1, 0)))  # Gaussian, pure imaginary, real
        keys = [(r, c) for r in range(shape[0]) for c in range(shape[1]) if rng.random() < 0.4]
        entries = {key: tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * k for k in kind) for key in keys}
        if (part := _integral_part(entries)) is not None:
            parts[m] = part
    return SparseMatrix(shape, parts)


def test_matrix_roundtrip_with_tower_scalars():
    """sanitize prints a SparseMatrix from its parts with the string that
    format_scalar gives each entry of the oracle's dense rows, "0" off
    the support, and each string parses back to that entry."""
    rng = random.Random(3)
    for _ in range(60):
        M = random_tower_matrix(rng, (rng.randint(1, 4), rng.randint(1, 4)))
        dense = to_dense(M)
        rows = sanitize(M)
        assert rows == [[format_scalar(x.terms()) for x in row] for row in dense]
        assert [[Scalar(parse_scalar(s)) for s in row] for row in rows] == dense
    assert sanitize(SparseMatrix((2, 1), {})) == [["0"], ["0"]]


def test_rationals_format_as_their_tower_scalars():
    values = [0, 1, -1, 7, -12, 10**20 + 1] + [
        Fraction(sign * num, den) for sign in (1, -1) for num in range(0, 13) for den in range(1, 13)
    ]
    for x in values:
        assert scalar_to_str(x) == format_scalar(Scalar.from_rational(x).terms())


def test_schema_error_names_path():
    with pytest.raises(SchemaError) as err:
        algebra_from_json({"names": ["a"], "parities": [0]})
    assert "$.brackets" in str(err.value)
    with pytest.raises(SchemaError) as err:
        algebra_from_json({"names": ["a"], "parities": [0], "brackets": [{"i": 0}]})
    assert "$.brackets[0]" in str(err.value)


def test_schema_error_on_irrational_or_repeated_brackets():
    names = {"names": ["a", "b", "z"], "parities": [0, 0, 0]}
    for text in ("sqrt(2)", "1*i", "1/2+sqrt(3)"):
        entry = {"i": 0, "j": 1, "value": ["0", "0", text]}
        with pytest.raises(SchemaError, match=r"non-rational structure constant .* at \$\.brackets\[0\]\.value$"):
            algebra_from_json({**names, "brackets": [entry]})
    z, two_z = ({"i": 0, "j": 1, "value": ["0", "0", c]} for c in ("1", "2"))
    with pytest.raises(SchemaError, match=r"^duplicate bracket entry for \(0,1\) at \$\.brackets\[1\]$"):
        algebra_from_json({**names, "brackets": [z, two_z]})
    # the mirrored pair is another entry: its consistency is the antisymmetry check's
    mirrored = {"i": 1, "j": 0, "value": ["0", "0", "-1"]}
    assert algebra_from_json({**names, "brackets": [z, mirrored]}).brackets == {
        (0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(-1)},
    }


def test_cli_validate_roundtrip(tmp_path, capsys):
    path = tmp_path / "alg.json"
    code = main(["catalog", "build", "su_pq", "--p", "2", "--q", "1", "--out", str(path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 8
    code = main(["validate", str(path)])
    assert code == 0
    res = json.loads(capsys.readouterr().out)
    assert res["valid"] and res["dim"] == 8
    # a built file also feeds --k for downstream commands
    code = main(["current", "--A", "grassmann:1", "--k", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 16


def test_cli_validate_rejects_bad_algebra(tmp_path, capsys):
    bad = {
        "names": ["e1", "e2", "e3"],
        "parities": [0, 0, 0],
        "brackets": [
            {"i": 0, "j": 1, "value": ["0", "0", "1"]},
            {"i": 1, "j": 0, "value": ["0", "0", "1"]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["validate", str(path)])
    assert code == 1
    res = json.loads(capsys.readouterr().out)
    assert not res["valid"] and "antisymmetry" in res["error"]


def test_cli_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["validate", str(path)])
    assert code == 2


def test_cli_deterministic_output(capsys):
    main(["urad", "verify", "--k", "su_pq:2,1", "--s", "1", "--seed", "7"])
    first = capsys.readouterr().out
    main(["urad", "verify", "--k", "catalog:su_pq:2,1", "--s", "1", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second and first


def test_cli_current(capsys):
    code = main(["current", "--A", "grassmann:1", "--k", "catalog:su_n:2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 6


def test_cli_cohomology_h2(capsys):
    code = main(["cohomology", "h2", "--k", "catalog:pq_n:3"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h2"] == 1


def test_cli_negative_control_exit_code(capsys):
    code = main(["cohomology", "verify-cor1", "--A", "grassmann:1", "--k", "catalog:pq_n:3", "--drop-eta"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["defect"] >= 1


def test_cli_urad_verify_on_a_degenerate_form(capsys):
    # q(n)'s odd pairing has the radical R i1, so der_- is not defined: one
    # JSON error and exit 1, as verify-cor1 gives on it
    code = main(["urad", "verify", "--k", "catalog:q_n:3", "--s", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert json.loads(captured.out) == {"error": "kappa is degenerate, so star is not defined", "passed": False}


def test_cli_clifford_gamma(capsys):
    code = main(["clifford", "gamma", "--mu", "1,1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["space_dim"] == 2 and out["commutant_dim"] == 1


def test_cli_clifford_rep_deterministic(capsys):
    main(["clifford", "rep", "--seed", "2"])
    a = capsys.readouterr().out
    main(["clifford", "rep", "--seed", "2"])
    b = capsys.readouterr().out
    assert a == b
    out = json.loads(a)
    assert out["space_dim"] == 2 ** (out["quotient_dim"] // 2)


def test_cli_report_all(tmp_path, capsys):
    sweep = {
        "catalog": [["su_pq", 2, 1]],
        "cor1": [{"s": 1, "k": ["su_n", 2]}],
        "urad": [{"s": 3, "k": ["su_n", 2], "seed": 7}],
        "kernel": [{"s": 1, "k": ["su_pq", 2, 1]}],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    code = main(["report", "all", "--params", str(path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_pass"]


def test_cli_report_all_keys_carry_the_params(tmp_path, capsys):
    # specs that differ only in the catalog parameters or the urad seed and
    # Hochschild choice each keep their result
    sweep = {
        "cor1": [{"s": 1, "k": ["su_n", 2]}, {"s": 1, "k": ["su_n", 3]}],
        "urad": [{"s": 1, "k": ["su_n", 2], "seed": 1}, {"s": 1, "k": ["su_n", 2], "hochschild": "zero"}],
        "kernel": [{"s": 1, "k": ["su_pq", 2, 1]}, {"s": 1, "k": ["su_pq", 3, 1]}],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    assert main(["report", "all", "--params", str(path)]) == 0
    assert list(json.loads(capsys.readouterr().out)["results"]) == [
        "cor1:lambda1:su_n:2", "cor1:lambda1:su_n:3",
        "kernel:lambda1:su_pq:2,1", "kernel:lambda1:su_pq:3,1",
        "urad:lambda1:su_n:2:random:seed1", "urad:lambda1:su_n:2:zero:seed0",
    ]  # sorted, as every JSON object prints
    # a spec whose key repeats an earlier one is refused before anything
    # runs, naming both JSON paths; the urad seed defaults to --seed
    sweep["urad"].append({"s": 1, "k": ["su_n", 2], "hochschild": "zero", "seed": 4})
    path.write_text(json.dumps(sweep))
    assert main(["report", "all", "--params", str(path), "--seed", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: duplicate result key 'urad:lambda1:su_n:2:zero:seed4' at $.urad[2], first at $.urad[1]"
    ]


def test_cli_usage_errors(capsys):
    assert main(["cohomology", "verify-cor1", "--k", "catalog:su_n:2"]) == 2
    assert main(["current", "--A", "poly:2", "--k", "catalog:su_n:2"]) == 2
    assert main(["validate", "/nonexistent/file.json"]) == 2


def test_cli_urad_even_route_and_faithful(capsys):
    code = main(["urad", "verify", "--k", "catalog:su_n:2", "--s", "3", "--seed", "5"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closure_contains_I"] and out["closure_equals_I"]
    code = main(["urad", "faithful", "--k", "catalog:su_n:2", "--s", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certificate_valid"]
    code = main(["urad", "faithful", "--k", "catalog:su_n:2", "--s", "3"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "witness"


# split gl(1|1): [E, x] = x, [E, y] = -y, [x, y] = Z.  Its even part is
# abelian and every invariant symmetric form on {x, y} pairs x with y, so no
# rule of decide_pointedness applies
SPLIT_GL11 = {"names": ["E", "Z", "x", "y"], "parities": [0, 0, 1, 1], "brackets": [
    {"i": 0, "j": 2, "value": ["0", "0", "1", "0"]},
    {"i": 0, "j": 3, "value": ["0", "0", "0", "-1"]},
    {"i": 2, "j": 3, "value": ["0", "1", "0", "0"]},
]}


def test_cli_pointed_from_file_reports_unknown(tmp_path, capsys):
    # no rule decides split gl(1|1): honest "unknown"
    (tmp_path / "gl11.json").write_text(json.dumps(SPLIT_GL11))
    code = main(["urad", "pointed", "--k", str(tmp_path / "gl11.json")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"verdict": "unknown"}


def test_cli_pointed_from_file_reads_the_algebra_alone(tmp_path, capsys):
    # a bare psu(2|2) file carries no catalog data, and is decided as the
    # catalog reference is, byte for byte
    main(["catalog", "build", "psu_pp", "--p", "2", "--out", str(tmp_path / "psu.json")])
    capsys.readouterr()
    assert main(["urad", "pointed", "--k", str(tmp_path / "psu.json")]) == 0
    text = capsys.readouterr().out
    out = json.loads(text)
    assert out["verdict"] == "non-pointed" and len(out["witness"]) == 8
    assert main(["urad", "pointed", "--k", "catalog:psu_pp:2"]) == 0
    assert capsys.readouterr().out == text


def test_cli_catalog_deterministic(capsys):
    main(["catalog", "build", "pq_n", "--n", "3"])
    a = capsys.readouterr().out
    main(["catalog", "build", "pq_n", "--n", "3"])
    b = capsys.readouterr().out
    assert a == b


DIRECTORY = "<a directory>"

# usage errors: each exits 2 with one error line and an empty stdout (the
# CLI transcript corpus replays them too, tests/cli_transcripts)
MALFORMED_ARGV = [
    ["current", "--A", "grassmann:x", "--k", "su_n:2"],
    ["current", "--A", "grassmann:0", "--k", "su_n:2"],
    ["current", "--A", "grassmann:1", "--k", "su_n:abc"],
    ["cohomology", "h2", "--k", "catalog:su_n:2,x"],
    ["urad", "verify", "--k", "su_n:2", "--s", "0"],
    ["urad", "faithful", "--k", "su_n:2", "--s", "-1"],
    ["urad", "faithful", "--k", "catalog:su_pq:2,1", "--s", "1"],
    ["urad", "verify", "--k", "catalog:su_n:2", "--s", "3", "--value-dim", "-2"],
    ["current", "--A", "grassmann:1", "--k", "su_n:2,3"],
    ["current", "--A", "grassmann:1", "--k", "su_n:"],
    ["catalog", "build", "su_n", "--p", "2", "--q", "3"],
    ["catalog", "build", "su_pq", "--p", "2"],
    ["clifford", "gamma", "--mu", "1,-1"],
    ["clifford", "gamma", "--mu", "abc"],
    ["clifford", "gamma", "--mu", "1/0"],
    # report all: the params file holds the last argument (see below)
    ["report", "all", "--params", '{"cor1": [{"s": 1}]}'],
    ["report", "all", "--params", '{"cor1": {"s": 1, "k": ["su_n", 2]}}'],
    ["report", "all", "--params", '{"cor1": [{"s": 1, "k": ["su_x", 2]}]}'],
    ["report", "all", "--params", '{"urad": [{"s": 3, "k": ["su_n", "2"]}]}'],
    ["report", "all", "--params", '{"kernel": [{"s": 0, "k": ["su_n", 2]}]}'],
    ["report", "all", "--params", '{"catalog": [["su_n", 2, 3]]}'],
    ["report", "all", "--params", '{"catalog": "su_n"}'],
    ["report", "all", "--params", '[["su_n", 2]]'],
    # validate: the algebra file holds the last argument, the JSON path
    # the error must name the one before it
    ["validate", "$.brackets[0].value", '{"names": ["a", "b"], "parities": [0, 0], '
                 '"brackets": [{"i": 0, "j": 1, "value": ["x", "0"]}]}'],
    ["validate", "$.brackets[0].value", '{"names": ["a", "b"], "parities": [0, 0], '
                 '"brackets": [{"i": 0, "j": 1, "value": ["1/0", "0"]}]}'],
    ["validate", "$.brackets[0].value", '{"names": ["a", "b"], "parities": [0, 0], '
                 '"brackets": [{"i": 0, "j": 1, "value": [1, "0"]}]}'],
    ["validate", "$.brackets[0]", '{"names": ["a", "b"], "parities": [0, 0], '
                 '"brackets": [{"i": "0", "j": 1, "value": ["1", "0"]}]}'],
    ["validate", "$.parities[0]", '{"names": ["a", "b"], "parities": ["x", 0], "brackets": []}'],
    ["validate", "$.brackets[0]", '{"names": ["a", "b"], "parities": [0, 0], "brackets": [5]}'],
    ["validate", "$.names", '{"names": "ab", "parities": [0, 0], "brackets": []}'],
    ["current", "--A", "grassmann:1", "--k", "catalog:nofam:2"],
    # a catalog reference holds a family and at most one parameter field
    ["current", "--A", "grassmann:1", "--k", "catalog:su_n:2:junk"],
    ["current", "--A", "grassmann:1", "--k", "su_n:2:9"],
    ["cohomology", "h2", "--k", "catalog:su_n:2", "--max-dim", "0"],
    ["cohomology", "z2", "--k", "catalog:su_n:2", "--max-dim", "-1"],
    ["cohomology", "verify-cor1", "--A", "grassmann:1", "--k", "catalog:su_n:2", "--max-dim", "0"],
    # refused by the Grassmann cap before anything is allocated
    ["urad", "verify", "--k", "catalog:su_n:2", "--s", "30"],
    ["current", "--A", "grassmann:30", "--k", "su_n:2"],
    # report all names the JSON path of an s above the cap
    ["report", "all", "--params", '{"cor1": [{"s": 30, "k": ["su_n", 2]}]}'],
    # a directory where an input file is expected (see below)
    ["validate", DIRECTORY],
    ["report", "all", "--params", DIRECTORY],
    # --out naming a directory: refused before the report reaches stdout
    ["catalog", "build", "su_n", "--n", "2", "--out", DIRECTORY],
    ["catalog", "build", "q_n", "--n", "3", "--facts", "--out", DIRECTORY],
    ["current", "--A", "grassmann:1", "--k", "catalog:su_n:2", "--out", DIRECTORY],
    ["cohomology", "z2", "--k", "catalog:su_n:2", "--out", DIRECTORY],
    # refused by the 2-cocycle dimension cap (dim 384 > 192) before any solve
    ["cohomology", "h2", "--A", "grassmann:7", "--k", "catalog:su_n:2"],
    # a catalog reference below the family's bound, refused before any rule
    ["urad", "pointed", "--k", "catalog:psu_pp:1"],
    ["urad", "pointed", "--k", "catalog:pq_n:2"],
    # one generator past the gamma cap (16): refused before any gamma is built
    ["clifford", "gamma", "--mu", ",".join(["1"] * 17)],
    # structure constants are rational, and each pair is given once
    ["validate", "$.brackets[0].value", '{"names": ["a", "b"], "parities": [0, 0], '
                 '"brackets": [{"i": 0, "j": 1, "value": ["sqrt(2)", "0"]}]}'],
    ["validate", "$.brackets[0].value", '{"names": ["a", "b"], "parities": [0, 0], '
                 '"brackets": [{"i": 0, "j": 1, "value": ["0", "1*i"]}]}'],
    ["validate", "$.brackets[1]", '{"names": ["a", "b", "z"], "parities": [0, 0, 0], '
                 '"brackets": [{"i": 0, "j": 1, "value": ["0", "0", "1"]}, '
                 '{"i": 0, "j": 1, "value": ["0", "0", "2"]}]}'],
    # refused before anything is built: by the catalog cap (c_n 20 is dim
    # 818) and by the current algebra cap (grassmann:7 with su(2) is dim 384)
    ["catalog", "build", "c_n", "--n", "20"],
    ["current", "--A", "grassmann:7", "--k", "catalog:su_n:2"],
    # each basis name is given once
    ["validate", "$.names[1]", '{"names": ["x", "x"], "parities": [0, 0], "brackets": []}'],
    # the fact sheet's h2 solves at the solver's default cap: psu(7|7) (dim
    # 194) is built, then refused before any fact is checked
    ["catalog", "build", "psu_pp", "--p", "7", "--facts"],
    # one past the value-dim cap (64), refused before the algebra is built
    ["urad", "verify", "--k", "catalog:su_n:2", "--s", "1", "--value-dim", "65"],
    # two specs with one result key
    ["report", "all", "--params", '{"kernel": [{"s": 1, "k": ["su_pq", 2, 1]}, {"s": 1, "k": ["su_pq", 2, 1]}]}'],
    # the replay's current algebra past its cap (dim 3072 > 256), refused
    # before it is built
    ["urad", "verify", "--k", "catalog:su_n:2", "--s", "10"],
    # a radicand and a mu past trial division's bound (2^61 - 1 is prime)
    ["validate", "$.brackets[0].value", '{"names": ["a", "b"], "parities": [0, 0], '
                 '"brackets": [{"i": 0, "j": 1, "value": ["sqrt(2305843009213693951)", "0"]}]}'],
    ["clifford", "gamma", "--mu", "2305843009213693951"],
    # text the JSON parser refuses: an array nested past its recursion
    # limit, and an integer past CPython's 4,300-digit conversion limit
    ["report", "all", "--params", "[" * 1100 + "]" * 1100],
    ["report", "all", "--params", '{"cor1": [{"s": ' + "1" * 5000 + ', "k": ["su_n", 2]}]}'],
    ["validate", "$", "[" * 1100 + "]" * 1100],
    ["validate", "$", '{"names": ["a", "b"], "parities": [0, 0], '
                 '"brackets": [{"i": ' + "1" * 5000 + ', "j": 1, "value": ["1", "0"]}]}'],
]


@pytest.mark.parametrize("argv", MALFORMED_ARGV)
def test_cli_malformed_input_is_usage_error(capsys, tmp_path, argv):
    json_path = None
    directory = argv[-1] == DIRECTORY
    if directory:
        argv = argv[:-1] + [str(tmp_path)]
    elif argv[0] == "validate":
        json_path = argv[1]
        argv = argv[:1] + argv[2:]
    if not directory and (argv[:2] == ["report", "all"] or argv[0] == "validate"):
        params = tmp_path / "input.json"
        params.write_text(argv[-1])
        argv = argv[:-1] + [str(params)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if directory:
        assert "Is a directory" in lines[0]
    elif argv[:2] == ["report", "all"]:
        assert " at $" in lines[0]  # names the JSON path
    if json_path is not None:
        assert f" at {json_path}" in lines[0]
    if "catalog:nofam:2" in argv:
        assert "unknown catalog family 'nofam'" in lines[0] and "su_n" in lines[0]
    for ref in ("catalog:su_n:2:junk", "su_n:2:9"):
        if ref in argv:
            assert repr(ref) in lines[0]


def test_urad_pointed_decides_by_the_witness_without_a_search(monkeypatch, capsys):
    # the verdict is read off the algebra: no random draw is made, and
    # --seed is accepted and changes nothing
    import superlie.unirad

    class NoRandom:
        def __init__(self, *_args, **_kwargs):
            raise AssertionError("a random draw in urad pointed")

    monkeypatch.setattr(superlie.unirad.random, "Random", NoRandom)
    for k in ("catalog:psu_pp:2", "catalog:pq_n:3"):
        texts = set()
        for seed in ("0", "7"):
            assert main(["urad", "pointed", "--k", k, "--seed", seed]) == 0
            texts.add(capsys.readouterr().out)
        (text,) = texts
        out = json.loads(text)
        assert set(out) == {"verdict", "witness"} and out["verdict"] == "non-pointed" and out["witness"]


def test_cli_gamma_cap_refuses_before_building(monkeypatch, capsys):
    import superlie.clifford

    def refuse(n):
        raise AssertionError("a gamma was built past the cap")

    monkeypatch.setattr(superlie.clifford, "_unit_gammas", refuse)
    assert main(["clifford", "gamma", "--mu", ",".join(["1"] * (superlie.clifford.GAMMA_CAP + 1))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == [f"error: gamma representations capped at {superlie.clifford.GAMMA_CAP} generators"]


def test_catalog_cap_refuses_before_building(monkeypatch, capsys, tmp_path):
    import superlie.catalog

    assert max(expected_dimension(*spec) for spec in CATALOG_BUILDS) <= CATALOG_DIM_CAP
    built = []
    monkeypatch.setitem(superlie.catalog._BUILDERS, "c_n", (built.append, ("n",)))
    build_catalog("c_n", 11)  # dim 251
    assert built == [11]
    with pytest.raises(CatalogError, match=f"c_n 12 has dim 298, above the catalog cap {CATALOG_DIM_CAP}"):
        build_catalog("c_n", 12)
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"catalog": [["c_n", 20]]}))
    for argv in (["cohomology", "z2", "--k", "catalog:c_n:20"], ["report", "all", "--params", str(sweep)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: c_n 20 has dim 818, above the catalog cap 256" + (" at $.catalog[0]" if "report" in argv else "")
        ]
    assert built == [11]


def test_fact_sheet_cap_refuses_before_any_work(monkeypatch, capsys):
    import superlie.catalog

    checked = []
    monkeypatch.setattr(superlie.catalog, "form_report", lambda L, form: checked.append(L.dim))
    with pytest.raises(DimensionCapError, match="dim 194 exceeds the catalog fact sheet's cap 192"):
        verify_catalog_facts(build_catalog("psu_pp", 7))
    assert checked == []
    assert main(["catalog", "build", "psu_pp", "--p", "7", "--facts"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: dim 194 exceeds the catalog fact sheet's cap 192"]
    assert checked == []
    # su(7), dim 48, is below the cap
    monkeypatch.undo()
    assert verify_catalog_facts(build_catalog("su_n", 7))["h2_dim"] == 0


def test_current_cap_refuses_before_building(monkeypatch, capsys):
    import superlie.cli

    built = []
    monkeypatch.setattr(superlie.cli, "grassmann", lambda s: built.append(s))
    monkeypatch.setattr(superlie.cli, "current_lsa", lambda A, K: None)
    su3 = build_catalog("su_n", 3).algebra
    superlie.cli._capped_grassmann("grassmann:5", su3, superlie.cli.CURRENT_DIM_CAP, "current algebra")
    assert built == [5]  # dim 256
    assert main(["current", "--A", "grassmann:6", "--k", "catalog:su_n:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: dim 512 exceeds the current algebra cap 256"]
    assert built == [5]


def test_urad_cap_refuses_before_building(monkeypatch, capsys, tmp_path):
    """urad verify and faithful, and the urad and kernel items of report
    all, refuse 2^s dim k above the current algebra cap before any replay
    or section runs."""
    import superlie.cli

    ran = []
    for name in ("verify_urad_theorem", "verify_kernel_theorem", "faithfulness_boundary", "verify_catalog_facts"):
        monkeypatch.setattr(superlie.cli, name, lambda *args, _name=name: ran.append(_name) or {})
    assert main(["urad", "faithful", "--k", "catalog:su_n:2", "--s", "6"]) == 0  # dim 192
    capsys.readouterr()
    sweep = tmp_path / "sweep.json"
    for argv, items, path in (
        (["urad", "verify", "--k", "catalog:su_n:2", "--s", "7"], {}, ""),
        (["urad", "faithful", "--k", "catalog:su_n:2", "--s", "7"], {}, ""),
        (["report", "all", "--params", str(sweep)], {"urad": [{"s": 7, "k": ["su_n", 2]}]}, " at $.urad[0]"),
        (["report", "all", "--params", str(sweep)], {"kernel": [{"s": 1, "k": ["su_pq", 2, 1]},
                                                                {"s": 4, "k": ["su_pq", 3, 2]}]}, " at $.kernel[1]"),
    ):
        sweep.write_text(json.dumps({"catalog": [["su_n", 2]], "urad": [{"s": 1, "k": ["su_n", 2]}], **items}))
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: dim 384 exceeds the current algebra cap 256{path}\n")
    assert ran == ["faithfulness_boundary"]


def test_report_all_checks_every_cap_before_any_section(monkeypatch, capsys, tmp_path):
    """report all refuses a cor1 item whose current algebra passes the
    2-cocycle solver cap, and a catalog item past the fact sheet's cap,
    before any section runs and before grassmann(s) is built."""
    import superlie.cli

    ran = []
    for name in ("verify_catalog_facts", "verify_cor1", "grassmann"):
        monkeypatch.setattr(superlie.cli, name, lambda *args, _name=name: ran.append(_name) or {})
    sweep = tmp_path / "sweep.json"
    for items, message in (
        ({"catalog": [["su_n", 2]], "cor1": [{"s": 1, "k": ["su_n", 2]}, {"s": 10, "k": ["su_n", 2]}]},
         "dim 3072 exceeds the configured 2-cocycle solver cap 192 at $.cor1[1]"),
        ({"catalog": [["su_n", 2], ["psu_pp", 7]], "cor1": [{"s": 1, "k": ["su_n", 2]}]},
         "dim 194 exceeds the catalog fact sheet's cap 192 at $.catalog[1]"),
    ):
        sweep.write_text(json.dumps(items))
        assert main(["report", "all", "--params", str(sweep)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert ran == []


def test_every_traced_module_imports_from_src():
    """perfbench/tracer.py wraps the functions of the superlie modules named
    in its MODULES, so `perfbench/run.py --trace 1` needs each importable
    from this checkout's src: a module removed or renamed fails here."""
    root = Path(__file__).resolve().parents[1]
    source = (root / "perfbench" / "tracer.py").read_text()
    names = ast.literal_eval(re.search(r"^MODULES = (\([^)]*\))", source, re.M).group(1))
    assert "scalars" in names
    for name in names:
        module = importlib.import_module(f"superlie.{name}")
        assert Path(module.__file__).resolve().is_relative_to(root / "src" / "superlie")


def test_star_import_resolves_every_public_name():
    import superlie

    namespace = {}
    exec("from superlie import *", namespace)
    assert len(set(superlie.__all__)) == len(superlie.__all__)
    assert [name for name in superlie.__all__ if name not in namespace] == []


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_cli_out_is_opened_before_any_work(monkeypatch, capsys, tmp_path, where):
    import superlie.cli

    def refuse(*_args, **_kwargs):
        raise AssertionError("verify_cor1 ran before --out was opened")

    monkeypatch.setattr(superlie.cli, "verify_cor1", refuse)
    out = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
    argv = ["cohomology", "verify-cor1", "--A", "grassmann:4", "--k", "catalog:su_n:2", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert ("Is a directory" if where == "directory" else "No such file or directory") in lines[0]


@pytest.mark.parametrize("action", ["z2", "h2", "verify-cor1"])
def test_cli_dimension_cap_refuses_before_building(monkeypatch, capsys, action):
    import superlie.cli

    def refuse(*_args, **_kwargs):
        raise AssertionError("grassmann ran before the dimension cap")

    monkeypatch.setattr(superlie.cli, "grassmann", refuse)
    assert main(["cohomology", action, "--A", "grassmann:10", "--k", "catalog:su_n:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: dim 3072 exceeds the configured 2-cocycle solver cap 192"]


def test_cli_out_gets_the_report(capsys, tmp_path):
    out = tmp_path / "h2.json"
    out.write_text("an older and longer report\n" * 100)
    assert main(["cohomology", "h2", "--k", "catalog:su_n:2", "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert out.read_text() == report
    # a run that fails after --out was opened leaves the file as it was
    assert main(["cohomology", "h2", "--k", "catalog:su_n:2", "--max-dim", "0", "--out", str(out)]) == 2
    assert main(["cohomology", "h2", "--k", "catalog:nofam:2", "--out", str(out)]) == 2
    assert out.read_text() == report

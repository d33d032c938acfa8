import json
import random
from fractions import Fraction

import pytest

from conftest import CATALOG_BUILDS, odd_heisenberg, su2_cyclic
from superlie.catalog import CATALOG_DIM_CAP, CatalogError, build_catalog, expected_dimension
from superlie.cli import main
from superlie.linalg import Matrix
from superlie.scalars import Scalar, format_scalar
from superlie.serial import (
    SchemaError,
    algebra_from_json,
    algebra_to_json,
    matrix_to_json,
    scalar_to_str,
    str_to_scalar,
)


def matrix_from_json(rows):
    """The Matrix of a matrix_to_json list of scalar string rows."""
    return Matrix([[str_to_scalar(x) for x in row] for row in rows])


def test_algebra_roundtrip_bit_exact():
    for L in (su2_cyclic(), odd_heisenberg(), build_catalog("su_pq", 2, 1).algebra):
        data = algebra_to_json(L)
        text = json.dumps(data, sort_keys=True)
        again = algebra_from_json(json.loads(text))
        assert again.names == L.names
        assert again.parities == L.parities
        assert again.brackets == L.brackets
        assert json.dumps(algebra_to_json(again), sort_keys=True) == text


def test_matrix_roundtrip_with_tower_scalars():
    from superlie.linalg import Matrix

    rng = random.Random(3)
    rows = []
    for _ in range(3):
        row = []
        for _ in range(3):
            s = Scalar.from_rational(Fraction(rng.randint(-3, 3), 2))
            s = s + Scalar.sqrt_rational(2) * rng.randint(-2, 2)
            s = s + Scalar.i() * Fraction(rng.randint(-2, 2), 3)
            row.append(s)
        rows.append(row)
    M = Matrix(rows)
    assert matrix_from_json(matrix_to_json(M)) == M


def test_rationals_format_as_their_tower_scalars():
    values = [0, 1, -1, 7, -12, 10**20 + 1] + [
        Fraction(sign * num, den) for sign in (1, -1) for num in range(0, 13) for den in range(1, 13)
    ]
    for x in values:
        assert scalar_to_str(x) == format_scalar(Scalar.from_rational(x))


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


def test_cli_pointed_from_file_reports_unknown(tmp_path, capsys):
    # a bare algebra file has no catalog witness data: honest "unknown"
    main(["catalog", "build", "psu_pp", "--p", "2", "--out", str(tmp_path / "psu.json")])
    capsys.readouterr()
    code = main(["urad", "pointed", "--k", str(tmp_path / "psu.json"), "--tries", "10"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "unknown"


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
    # refused by the 2-cocycle dimension cap (dim 192 > 48) before any solve
    ["cohomology", "h2", "--A", "grassmann:6", "--k", "catalog:su_n:2"],
    # the random certificate search draws denominators from 1..height
    ["urad", "pointed", "--k", "catalog:psu_pp:2", "--height", "0"],
    ["urad", "pointed", "--k", "catalog:su_n:2", "--tries", "-3"],
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
    assert captured.err.splitlines() == ["error: dim 3072 exceeds the configured 2-cocycle solver cap 48"]


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

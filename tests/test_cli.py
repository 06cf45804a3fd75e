"""CLI dispatch, JSON round trips, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

import genusforge
from genusforge.cli import main, run
from genusforge.lattice import builtin_lattice, lattice_to_json


def invoke(*argv):
    return run(list(argv))


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def payload(*argv):
    result = invoke(*argv)
    assert result.status == "ok", result.payload
    return result.payload


class TestExamples:
    def test_milgram_of_a1_discriminant_form(self, tmp_path):
        lat = payload("lattice", "builtin", "A1")
        qs = payload("lattice", "disc-form", write(tmp_path, "a1l.json", lat))
        out = payload("qs", "milgram", write(tmp_path, "a1.json", qs))
        assert out == {"signature_mod8": 1}

    def test_genus_compare_rank16_pair(self, tmp_path):
        a = write(tmp_path, "a.json", payload("lattice", "builtin", "E8E8"))
        b = write(tmp_path, "b.json", payload("lattice", "builtin", "D16+"))
        assert payload("lattice", "genus-compare", a, b) == {"same_genus": True}

    def test_sigma_length16_dim1(self):
        assert payload("codes", "sigma", "--length", "16", "--dim", "1") == {"sigma": 1}

    def test_sigma_length24_dim3(self):
        assert payload("codes", "sigma", "--length", "24", "--dim", "3") == {"sigma": 17194086195}

    def test_mass_length32_is_exact(self):
        out = payload("--limit", "32", "codes", "mass", "--length", "32")
        assert out == {"mass": "1107745345048268068311104992186394483/"
                               "7338560644151445665941498529411235840000000"}


class TestRoundTrips:
    def test_disc_form_feeds_every_qs_command(self, tmp_path):
        lat = write(tmp_path, "d4.json", payload("lattice", "builtin", "D4"))
        qs_doc = payload("lattice", "disc-form", lat)
        f = write(tmp_path, "d4qs.json", qs_doc)
        assert payload("qs", "validate", f)["valid"]
        assert payload("qs", "milgram", f) == {"signature_mod8": 4}
        subs = payload("qs", "isotropic", f)
        assert subs["count"] == len(subs["subgroups"])
        assert payload("qs", "isometric", f, f) == {"isometric": True}
        parts = payload("qs", "decompose", f)["primary"]
        g = write(tmp_path, "part.json", parts["2"])
        assert payload("qs", "validate", g)["valid"]

    @pytest.mark.parametrize("gram,parts", [
        ([[2, -1], [-1, 2]], {"3": [3]}),                              # A2
        ([[2, 0, 0], [0, 2, -1], [0, -1, 2]], {"2": [2], "3": [3]}),  # A1 + A2
    ])
    def test_decompose_with_odd_part(self, tmp_path, gram, parts):
        f = write(tmp_path, "qs.json", payload(
            "lattice", "disc-form", write(tmp_path, "l.json", {"gram": gram})))
        got = payload("qs", "decompose", f)["primary"]
        assert {p: part["orders"] for p, part in got.items()} == parts
        for part in got.values():
            assert payload("qs", "validate", write(tmp_path, "part.json", part))["valid"]

    def test_quotient_output_is_a_valid_space(self, tmp_path):
        lat = write(tmp_path, "d8.json", payload("lattice", "builtin", "D8"))
        f = write(tmp_path, "d8qs.json", payload("lattice", "disc-form", lat))
        iso = payload("qs", "isotropic", f)
        gens = next(s["generators"] for s in iso["subgroups"] if s["order"] > 1)
        quot = payload("qs", "quotient", f, "--subgroup", json.dumps(gens))
        assert payload("qs", "validate", write(tmp_path, "q.json", quot))["valid"]

    def test_modular_data_round_trip(self, tmp_path):
        md = payload("modcat", "ising")
        f = write(tmp_path, "ising.json", md)
        table = payload("modcat", "verlinde", f)
        assert table["table"][2][2] == [1, 1, 0]
        assert payload("modcat", "genus-dim", f, "--g", "2") == {"dimension": 10}
        assert payload("modcat", "milgram", f, "--c", "1/2") == {"compatible": True}
        assert payload("modcat", "milgram", f, "--c", "1") == {"compatible": False}

    def test_from_qs_with_check(self, tmp_path):
        lat = write(tmp_path, "a2.json", payload("lattice", "builtin", "A2"))
        f = write(tmp_path, "a2qs.json", payload("lattice", "disc-form", lat))
        md = payload("modcat", "from-qs", f, "--check")
        g = write(tmp_path, "a2md.json", md)
        assert payload("modcat", "genus-dim", g, "--g", "1") == {"dimension": 3}
        punct = payload("modcat", "genus-dim", g, "--g", "0",
                        "--punctures", "1", "2")
        assert punct == {"dimension": 1}

    def test_extensions_quotients_validate(self, tmp_path):
        lat = write(tmp_path, "d8.json", payload("lattice", "builtin", "D8"))
        f = write(tmp_path, "qs.json", payload("lattice", "disc-form", lat))
        out = payload("modcat", "extensions", f)
        assert out["count"] == 3
        for rep in out["extensions"]:
            g = write(tmp_path, "quot.json", rep["quotient"])
            assert payload("qs", "validate", g)["valid"]

    def test_lexicode_feeds_check_framed(self, tmp_path):
        code = payload("codes", "lexicode", "--length", "8", "--distance", "4")
        f = write(tmp_path, "l84.json", code)
        out = payload("codes", "check-framed", f, f)
        assert out["conditions"]["d_subset_c_dual"]
        assert not out["ok"]

    def test_overlattice_lattices_feed_lattice_commands(self, tmp_path):
        lat = write(tmp_path, "d8.json", payload("lattice", "builtin", "D8"))
        out = payload("lattice", "overlattices", lat)
        assert out["count"] == 3
        proper = [o for o in out["overlattices"] if o["subgroup"]["order"] > 1]
        assert len(proper) == 2
        for o in proper:
            f = write(tmp_path, "over.json", o["lattice"])
            assert payload("lattice", "roots", f)["components"] == [["E", 8]]

    def test_theta_and_roots(self, tmp_path):
        lat = write(tmp_path, "e8.json", payload("lattice", "builtin", "E8"))
        out = payload("lattice", "theta", lat, "--terms", "2")
        assert out == {"coefficients": [1, 240, 2160]}
        roots = payload("lattice", "roots", lat)
        assert roots == {"components": [["E", 8]], "root_count": 240}

    def test_theta_and_roots_of_an_interleaved_sum(self, tmp_path, capsys):
        # A1 + A2 with the A1 basis vector between the two of A2.
        f = write(tmp_path, "a1a2.json", {"gram": [[2, 0, 1], [0, 2, 0], [1, 0, 2]]})
        assert main(["lattice", "roots", f]) == 0
        assert capsys.readouterr().out == ('{"components": [["A", 1], ["A", 2]], '
                                           '"root_count": 8}\n')
        assert main(["lattice", "theta", f, "--terms", "2"]) == 0
        assert capsys.readouterr().out == '{"coefficients": [1, 8, 12]}\n'


class TestStatusAndFlags:
    def test_malformed_json_names_the_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        result = invoke("qs", "milgram", str(bad))
        assert result.status == "validation-error" and result.exit_code == 1
        assert "bad.json" in result.payload["error"]
        assert "line" in result.payload["error"]

    def test_missing_file(self):
        result = invoke("lattice", "roots", "/nonexistent/x.json")
        assert result.status == "validation-error"

    def test_unknown_command(self, capsys):
        result = invoke("frobnicate")
        capsys.readouterr()
        assert result.status == "validation-error" and result.exit_code == 1

    def test_limit_exceeded_maps_to_exit_2(self):
        result = invoke("codes", "sigma", "--length", "30", "--dim", "2")
        assert result.status == "limit-exceeded" and result.exit_code == 2

    def test_limit_flag_overrides_cap(self):
        out = payload("--limit", "40", "codes", "sigma", "--length", "40", "--dim", "1")
        assert out == {"sigma": 1}

    def test_precision_flag_is_rejected(self, tmp_path):
        # modcat milgram reads its sign off one interval of fixed width, so
        # there is no precision to set
        lat = payload("lattice", "builtin", "A2")
        f = write(tmp_path, "a2qs.json",
                  payload("lattice", "disc-form", write(tmp_path, "l.json", lat)))
        md = write(tmp_path, "a2md.json", payload("modcat", "from-qs", f))
        assert payload("modcat", "milgram", md, "--c", "2") == {"compatible": True}
        for argv in (("--precision", "96", "modcat", "milgram", md, "--c", "2"),
                     ("--precision", "96", "qs", "milgram", f)):
            result = invoke(*argv)
            assert result.status == "validation-error" and result.exit_code == 1

    def test_validation_error_in_library_maps_to_exit_1(self, tmp_path):
        f = write(tmp_path, "bad.json", {"gram": [[1]]})  # odd diagonal
        result = invoke("lattice", "disc-form", f)
        assert result.status == "validation-error" and result.exit_code == 1

    @pytest.mark.parametrize("entry", ["x/2", "1/0"])
    def test_malformed_rational_in_a_space(self, tmp_path, entry):
        f = write(tmp_path, "q.json", {"orders": [2], "q": [entry]})
        result = invoke("qs", "validate", f)
        assert result.status == "validation-error" and result.exit_code == 1

    @pytest.mark.parametrize("entry", ["abc", "1/0", {"order": 4, "coeffs": "12"}])
    def test_malformed_entry_in_modular_data(self, tmp_path, capsys, entry):
        doc = payload("modcat", "ising")
        doc["s_tilde"][0][0] = entry
        f = write(tmp_path, "md.json", doc)
        assert main(["modcat", "verlinde", f]) == 1
        assert json.loads(capsys.readouterr().out)["status"] == "validation-error"

    @pytest.mark.parametrize("key, value", [
        ("q", 5), ("orders", 2), ("b", 7), ("b", [7]),
        ("orders", [2.7]), ("orders", ["2"]), ("orders", [True])])
    def test_malformed_space_document(self, tmp_path, capsys, key, value):
        doc = {"orders": [2], "q": ["1/2"], "b": [["1/2"]]}
        doc[key] = value
        f = write(tmp_path, "q.json", doc)
        assert main(["qs", "validate", f]) == 1
        assert json.loads(capsys.readouterr().out)["status"] == "validation-error"

    @pytest.mark.parametrize("changes", [
        {"s_tilde": 5}, {"s_tilde": [1, 2, 3]}, {"labels": True}, {"dual": ["0", 1, 2]},
        {"labels": 0, "dual": [], "s_tilde": [], "twists": [], "weights": []}])
    def test_malformed_modular_data_document(self, tmp_path, capsys, changes):
        f = write(tmp_path, "md.json", {**payload("modcat", "ising"), **changes})
        assert main(["modcat", "verlinde", f]) == 1
        assert json.loads(capsys.readouterr().out)["status"] == "validation-error"

    def test_code_basis_must_be_a_list(self, tmp_path, capsys):
        f = write(tmp_path, "c.json", {"length": 1, "basis": "10"})
        assert main(["codes", "check-framed", f, f]) == 1
        assert json.loads(capsys.readouterr().out)["status"] == "validation-error"

    def test_quotient_subgroup_coordinate_must_not_be_bool(self, tmp_path, capsys):
        # [[0, 1]] spans an isotropic subgroup of the hyperbolic plane, so
        # reading true as 1 would succeed
        f = write(tmp_path, "u.json", {"orders": [2, 2], "q": ["0", "0"],
                                       "b": [["0", "1/2"], ["1/2", "0"]]})
        assert main(["qs", "quotient", f, "--subgroup", "[[0, 1]]"]) == 0
        capsys.readouterr()
        assert main(["qs", "quotient", f, "--subgroup", "[[0, true]]"]) == 1
        assert json.loads(capsys.readouterr().out)["status"] == "validation-error"

    @pytest.mark.parametrize("argv", [("codes", "sigma", "--length", "16", "--dim", "2"),
                                      ("codes", "mass", "--length", "16")])
    def test_negative_limit_is_a_validation_error(self, argv):
        result = invoke("--limit", "-5", *argv)
        assert result.status == "validation-error" and result.exit_code == 1
        assert "nonnegative integer" in result.payload["error"]

    def test_mass_wrong_length(self):
        result = invoke("codes", "mass", "--length", "8")
        assert result.status == "validation-error"

    def test_main_prints_json_and_returns_exit_code(self, capsys):
        assert main(["codes", "sigma", "--length", "16", "--dim", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"sigma": 1}
        assert main(["codes", "sigma", "--length", "99", "--dim", "1"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "limit-exceeded"

    def test_theta_past_int64_is_a_limit_error(self, tmp_path, capsys):
        # A2 on the basis (e1 + 10^10 e2, e2): Gram entries near 2 * 10^20
        big = 2 * 10 ** 10 - 1
        f = write(tmp_path, "a2.json", {"gram": [[2 * 10 ** 20 - 2 * 10 ** 10 + 2, big],
                                                 [big, 2]]})
        assert main(["lattice", "theta", f, "--terms", "1"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "limit-exceeded" and "64-bit" in doc["error"]

    def test_pretty_output_parses_the_same(self, capsys):
        main(["--pretty", "codes", "sigma", "--length", "16", "--dim", "1"])
        out = capsys.readouterr().out
        assert "\n" in out.strip()
        assert json.loads(out) == {"sigma": 1}

    def test_pretty_accepts_an_abbreviation(self, capsys):
        # argparse takes a unique prefix of a long option
        assert main(["--pret", "codes", "sigma", "--length", "16", "--dim", "1"]) == 0
        out = capsys.readouterr().out
        assert "\n" in out.strip()
        assert json.loads(out) == {"sigma": 1}

    def test_leading_pretty_indents_a_rejected_command(self, capsys):
        # the top-level flag is read before argparse rejects the missing --dim
        assert main(["--pretty", "codes", "sigma", "--length", "16"]) == 1
        out = capsys.readouterr().out
        assert "\n" in out.strip()
        assert json.loads(out)["status"] == "validation-error"

    def test_rejected_command_prints_compact_json(self, capsys):
        # --pretty after the subcommand is not parsed, so it does not apply
        assert main(["codes", "sigma", "--length", "16", "--dim", "1", "--pretty"]) == 1
        out = capsys.readouterr().out
        assert "\n" not in out.strip()
        assert json.loads(out)["status"] == "validation-error"


SRC = os.path.dirname(os.path.dirname(os.path.abspath(genusforge.__file__)))
LAYERS = {"codes", "exactkernel", "lattice", "modcat", "quadspace"}


def fresh(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          check=True, capture_output=True, text=True, timeout=120).stdout


def test_import_loads_no_mpmath_and_no_process_pool():
    # numpy is the one runtime dependency, and nothing starts a worker pool;
    # the layers load their submodules on first use, so read every name
    out = fresh("import sys, importlib, genusforge.cli\n"
                f"for layer in {sorted(LAYERS)}:\n"
                "    pkg = importlib.import_module('genusforge.' + layer)\n"
                "    for name in pkg.__all__:\n"
                "        getattr(pkg, name)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                "('mpmath', 'multiprocessing') or m == 'concurrent.futures.process'))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_public_name_resolves(layer):
    # a typo in a package's name table would show only when the name is read
    out = fresh("import json, genusforge." + layer + " as pkg\n"
                "ns = {}\n"
                "exec('from genusforge." + layer + " import *', ns)\n"
                "print(json.dumps({'all': pkg.__all__,\n"
                "    'star': sorted(n for n in pkg.__all__ if ns.get(n) is getattr(pkg, n)),\n"
                "    'dir': sorted(set(pkg.__all__) & set(dir(pkg))),\n"
                "    'unknown': hasattr(pkg, 'no_such_name')}))")
    doc = json.loads(out)
    names = doc["all"]
    assert names and len(set(names)) == len(names)
    assert doc["star"] == doc["dir"] == sorted(names)
    assert doc["unknown"] is False


def test_names_survive_their_submodules_loading_first():
    # importing a submodule binds it on its package, over any public name of
    # the same spelling: a submodule named lexicode would hide codes.lexicode
    out = fresh("import importlib, pkgutil, types\n"
                f"for layer in {sorted(LAYERS)}:\n"
                "    pkg = importlib.import_module('genusforge.' + layer)\n"
                "    for m in pkgutil.iter_modules(pkg.__path__):\n"
                "        importlib.import_module(pkg.__name__ + '.' + m.name)\n"
                "    for name in pkg.__all__:\n"
                "        if isinstance(getattr(pkg, name), types.ModuleType):\n"
                "            print(pkg.__name__, name)\n"
                "from genusforge import codes\n"
                "print(codes.lexicode(8, 4).dim)")
    assert out.strip() == "4"


CLI = ["-m", "genusforge.cli"]
NO_NUMPY = {"numpy"}


@pytest.mark.parametrize("args, own, absent", [
    (CLI + ["codes", "sigma", "--length", "16", "--dim", "1"], {"codes"},
     {"quadspace", "lattice", "modcat", "exactkernel"}),
    (CLI + ["codes", "check-framed", "c.json", "c.json"], {"codes"},
     {"quadspace", "lattice", "modcat", "exactkernel"} | NO_NUMPY),
    (CLI + ["qs", "milgram", "a1.json"], {"quadspace", "exactkernel"},
     {"lattice", "modcat", "codes"} | NO_NUMPY),
    (CLI + ["qs", "validate", "a1.json"], {"quadspace", "exactkernel"},
     {"lattice", "modcat", "codes"} | NO_NUMPY),
    (CLI + ["qs", "decompose", "a1.json"], {"quadspace", "exactkernel"},
     {"lattice", "modcat", "codes"} | NO_NUMPY),
    (CLI + ["lattice", "builtin", "A1"], {"lattice", "exactkernel"},
     {"codes", "modcat", "quadspace"} | NO_NUMPY),
    (CLI + ["lattice", "disc-form", "a1l.json"], {"lattice", "quadspace", "exactkernel"},
     {"codes", "modcat"} | NO_NUMPY),
    (CLI + ["lattice", "genus-compare", "E8E8.json", "D16+.json"],
     {"lattice", "quadspace", "exactkernel"}, {"codes", "modcat"} | NO_NUMPY),
    (CLI + ["modcat", "ising"], {"modcat", "quadspace"}, {"codes", "lattice"}),
    (["-c", "import genusforge.cli"], set(), LAYERS | NO_NUMPY),
], ids=["codes", "codes-check-framed", "qs", "qs-validate", "qs-decompose", "lattice",
        "lattice-disc-form", "lattice-genus-compare", "modcat", "import"])
def test_each_command_group_imports_only_its_layers(tmp_path, args, own, absent):
    # -X importtime names every module as a fresh interpreter first loads
    # it into sys.modules
    write(tmp_path, "a1.json", {"orders": [2], "q": ["1/2"]})
    write(tmp_path, "a1l.json", {"gram": [[2]]})
    write(tmp_path, "c.json", {"length": 8, "basis": ["11110000", "00001111"]})
    for name in ("E8E8", "D16+"):
        write(tmp_path, f"{name}.json", lattice_to_json(builtin_lattice(name)))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path,
                          check=True, capture_output=True, text=True, timeout=120)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    loaded = {n.split(".")[1] for n in names if n.startswith("genusforge.")} & LAYERS
    loaded |= NO_NUMPY & names
    assert own <= loaded and not loaded & absent, loaded
    assert not {n for n in names if n.split(".")[0] in ("mpmath", "multiprocessing")
                or n == "concurrent.futures.process"}

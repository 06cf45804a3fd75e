"""CLI dispatch, JSON round trips, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

import genusforge
from genusforge.cli import main, run


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
            assert rep["exists_and_unique"]
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

    def test_precision_flag_reaches_milgram(self, tmp_path):
        lat = payload("lattice", "builtin", "A2")
        f = write(tmp_path, "a2qs.json",
                  payload("lattice", "disc-form", write(tmp_path, "l.json", lat)))
        assert payload("--precision", "96", "qs", "milgram", f) == {"signature_mod8": 2}

    def test_validation_error_in_library_maps_to_exit_1(self, tmp_path):
        f = write(tmp_path, "bad.json", {"gram": [[1]]})  # odd diagonal
        result = invoke("lattice", "disc-form", f)
        assert result.status == "validation-error" and result.exit_code == 1

    def test_mass_wrong_length(self):
        result = invoke("codes", "mass", "--length", "8")
        assert result.status == "validation-error"

    def test_main_prints_json_and_returns_exit_code(self, capsys):
        assert main(["codes", "sigma", "--length", "16", "--dim", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"sigma": 1}
        assert main(["codes", "sigma", "--length", "99", "--dim", "1"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "limit-exceeded"

    def test_pretty_output_parses_the_same(self, capsys):
        main(["--pretty", "codes", "sigma", "--length", "16", "--dim", "1"])
        out = capsys.readouterr().out
        assert "\n" in out.strip()
        assert json.loads(out) == {"sigma": 1}


def test_import_loads_no_mpmath_and_no_process_pool():
    # numpy is the one runtime dependency, and nothing starts a worker pool
    src = os.path.dirname(os.path.dirname(os.path.abspath(genusforge.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, genusforge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('mpmath', 'multiprocessing') or m == 'concurrent.futures.process'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"

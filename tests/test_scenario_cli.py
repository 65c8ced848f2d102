"""Scenario loading (fail-closed validation, stable digests) and the CLI
surface: outputs, exit codes, reproducibility."""
import copy
import csv
import dataclasses
import json
import math
from pathlib import Path

import pytest

from satqkd import channel, cli, finitekey, linkbudget, orbit
from satqkd.channel import ChannelError, DetectorSpec
from satqkd.cli import main
from satqkd.finitekey import FiniteKeyError
from satqkd.linkbudget import LinkBudgetError
from satqkd.optimizer import OptimizerError, ParamVector
from satqkd.orbit import GeometryError
from satqkd.scenario import (
    ScenarioError,
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario,
    scenario_from_dict,
)

FAST_OPTIMIZER = {"coarse_grid_steps": 4, "refine_iterations": 1, "rel_tolerance": 1e-3}


def bundled_doc(name: str) -> dict:
    path = Path(__file__).resolve().parents[1] / f"src/satqkd/scenarios/{name}.json"
    return json.loads(path.read_text())


@pytest.fixture()
def snspd_doc():
    return bundled_doc("snspd_pol_2decoy")


class TestScenarioValidation:
    def test_all_bundled_scenarios_load(self):
        names = bundled_scenario_names()
        assert len(names) == 9
        for name in names:
            scenario = load_bundled_scenario(name)
            assert scenario.name == name
            assert scenario.n_decoys in (1, 2)

    def test_digest_stable_under_reordering(self, snspd_doc):
        scrambled = json.loads(json.dumps(dict(reversed(list(snspd_doc.items())))))
        a = scenario_from_dict(snspd_doc)
        b = scenario_from_dict(scrambled)
        assert a.digest() == b.digest()

    def test_digest_changes_with_content(self, snspd_doc):
        a = scenario_from_dict(snspd_doc)
        changed = copy.deepcopy(snspd_doc)
        changed["source"]["signal_intensity"] = 0.5
        assert scenario_from_dict(changed).digest() != a.digest()

    def test_unknown_top_level_field_rejected(self, snspd_doc):
        doc = copy.deepcopy(snspd_doc)
        doc["surprise"] = 1
        with pytest.raises(ScenarioError, match="scenario.surprise"):
            scenario_from_dict(doc)

    def test_unknown_section_field_rejected(self, snspd_doc):
        doc = copy.deepcopy(snspd_doc)
        doc["detector"]["colour"] = "blue"
        with pytest.raises(ScenarioError, match="detector.colour"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("detector", "timing_jitter_ps", 30.0),
            ("receiver", "effective_focal_length_m", 2.0),
            ("optimizer", "rng_seed", 7),
            ("orbit", "inclination_deg", 97.66),
            ("orbit", "earth_radius_km", 6371.0),
            ("transmitter", "truncation_ratio", 1.12),
        ],
    )
    def test_removed_knob_rejected(self, snspd_doc, section, field, value):
        doc = copy.deepcopy(snspd_doc)
        doc[section][field] = value
        with pytest.raises(ScenarioError, match=f"unknown field {section}.{field}"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("orbit", "altitude_km", -5.0),
            ("orbit", "inclination_deg", 200.0),
            ("station", "min_elevation_deg", 0.0),
            ("station", "max_elevation_deg", 95.0),
            ("transmitter", "aperture_diam_m", 0.0),
            ("transmitter", "m_squared", 0.5),
            ("transmitter", "pointing_loss_db", -1.0),
            ("receiver", "obscuration_diam_m", 0.9),
            ("receiver", "coupling_mode", "telepathy"),
            ("receiver", "coupling_loss_db", -2.0),
            ("atmosphere", "zenith_loss_db", {"1550": -0.4}),
            ("detector", "efficiency", 1.5),
            ("detector", "dark_count_rate_hz", -1.0),
            ("detector", "n_detectors", 0),
            ("source", "signal_intensity", 0.05),
            ("source", "p_mu", 0.0),
            ("source", "p_z_alice", 1.0),
            ("source", "misalignment_z", 0.7),
            ("security", "eps_sec", 2.0),
            ("security", "f_ec", 0.5),
            ("optimizer", "coarse_grid_steps", 1),
            ("optimizer", "rel_tolerance", 0.0),
        ],
    )
    def test_invalid_field_named_in_error(self, snspd_doc, section, field, value):
        doc = copy.deepcopy(snspd_doc)
        doc[section][field] = value
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert field in str(err.value), f"message should name {field}: {err.value}"

    @pytest.mark.parametrize(
        "section,field,value,error",
        [
            ("detector", "dark_count_rate_hz", math.nan, ChannelError),
            ("detector", "dead_time_ns", math.nan, ChannelError),
            ("detector", "background_rate_hz", math.nan, ChannelError),
            ("detector", "gate_width_ns", math.nan, ChannelError),
            ("source", "pulse_rate_hz", math.nan, ChannelError),
            ("security", "f_ec", math.nan, FiniteKeyError),
            ("transmitter", "aperture_diam_m", math.nan, LinkBudgetError),
            ("transmitter", "wavelength_nm", math.nan, LinkBudgetError),
            ("transmitter", "m_squared", math.nan, LinkBudgetError),
            ("transmitter", "pointing_loss_db", math.nan, LinkBudgetError),
            ("receiver", "primary_diam_m", math.nan, LinkBudgetError),
            ("receiver", "coupling_loss_db", math.nan, LinkBudgetError),
            ("receiver", "path_loss_db", math.nan, LinkBudgetError),
            ("receiver", "fov_half_angle_urad", math.nan, LinkBudgetError),
            ("receiver", "filter_bandwidth_nm", math.nan, LinkBudgetError),
            ("atmosphere", "zenith_loss_db", {1550.0: math.nan}, LinkBudgetError),
            ("atmosphere", "sky_radiance_w_m2_sr_nm", {1550.0: math.nan}, LinkBudgetError),
            ("orbit", "altitude_km", math.nan, GeometryError),
            ("optimizer", "rel_tolerance", math.nan, OptimizerError),
            ("params", "p_mu", math.nan, OptimizerError),
            ("scenario", "sample_dt_s", math.nan, ScenarioError),
        ],
    )
    def test_nan_field_rejected_by_spec(self, section, field, value, error):
        """Every range check fails closed on NaN, also when a spec is built
        directly rather than loaded, and names the field."""
        scenario = load_bundled_scenario("snspd_pol_2decoy")
        specs = {"scenario": scenario, "params": ParamVector(0.6, 0.2, 0.7, 0.2, 0.5, 20.0)}
        spec = specs[section] if section in specs else getattr(scenario, section)
        with pytest.raises(error, match=field):
            dataclasses.replace(spec, **{field: value})

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda sc: orbit.sso_inclination(math.nan), GeometryError),
            (lambda sc: orbit.max_ground_distance(math.nan, 20.0), GeometryError),
            (lambda sc: orbit.coverage_and_availability(math.nan), GeometryError),
            (lambda sc: orbit.synth_pass(sc.orbit, sc.station, sample_dt_s=math.nan), GeometryError),
            (lambda sc: linkbudget.atmospheric_loss(45.0, math.nan), LinkBudgetError),
            (lambda sc: channel.background_yield(
                dataclasses.replace(sc.detector, gate_width_ns=None), math.nan), ChannelError),
            (lambda sc: finitekey.asymptotic_skr(math.nan, sc.source, sc.detector, sc.security),
             FiniteKeyError),
        ],
        ids=["sso_inclination", "max_ground_distance", "coverage_and_availability", "synth_pass",
             "atmospheric_loss", "background_yield", "asymptotic_skr"],
    )
    def test_nan_argument_rejected(self, call, error):
        """The library functions' own range checks fail closed on NaN too."""
        with pytest.raises(error):
            call(load_bundled_scenario("snspd_pol_2decoy"))

    def test_missing_field_rejected(self, snspd_doc):
        doc = copy.deepcopy(snspd_doc)
        del doc["source"]["decoy_intensity"]
        with pytest.raises(ScenarioError, match="source.decoy_intensity"):
            scenario_from_dict(doc)

    def test_wavelength_consistency(self, snspd_doc):
        doc = copy.deepcopy(snspd_doc)
        doc["transmitter"]["wavelength_nm"] = 1310.0
        with pytest.raises(ScenarioError, match="wavelength"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("field", ["vacuum_included", "hold_slot_rate"])
    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_bool_field_rejects_other_json_types(self, field, value):
        """A flag is JSON true or false; "false" used to load as true."""
        doc = bundled_doc("snspd_tb_2decoy")
        doc["source"][field] = value
        with pytest.raises(ScenarioError, match=f"source.{field} must be true or false"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("section,field", [
        ("scenario", "name"), ("scenario", "encoding"), ("receiver", "coupling_mode"),
    ])
    @pytest.mark.parametrize("value", [5, ["polarisation"]], ids=["number", "list"])
    def test_string_field_rejects_other_json_types(self, snspd_doc, section, field, value):
        doc = copy.deepcopy(snspd_doc)
        (doc if section == "scenario" else doc[section])[field] = value
        with pytest.raises(ScenarioError, match=f"{section}.{field} must be a string"):
            scenario_from_dict(doc)

    def test_absent_detector_fields_take_spec_defaults(self, snspd_doc):
        doc = copy.deepcopy(snspd_doc)
        del doc["detector"]["n_detectors"], doc["detector"]["gate_width_ns"]
        detector = scenario_from_dict(doc).detector
        assert detector == DetectorSpec(**doc["detector"])
        assert (detector.n_detectors, detector.gate_width_ns) == (1, 1.0)

    def test_asymmetric_basis_bias_rejected(self, snspd_doc):
        """skl and optimize apply one p_z on both sides, so p_z_bob would be ignored."""
        doc = copy.deepcopy(snspd_doc)
        doc["source"]["p_z_bob"] = 0.5
        with pytest.raises(ScenarioError, match="source.p_z_bob"):
            scenario_from_dict(doc)

    def test_vacuum_flag_must_match_decoys(self, snspd_doc):
        doc = copy.deepcopy(snspd_doc)
        doc["source"]["vacuum_included"] = False
        with pytest.raises(ScenarioError, match="vacuum_included"):
            scenario_from_dict(doc)

    def test_elevation_table_override(self, tmp_path, snspd_doc):
        table = tmp_path / "measured.txt"
        table.write_text("20 2.5\n90 0.6\n")
        doc = copy.deepcopy(snspd_doc)
        doc["atmosphere"]["elevation_table_path"] = str(table)
        scenario = scenario_from_dict(doc)
        assert scenario.atmosphere.loss_at(20.0, 1550.0) == pytest.approx(2.5)
        assert scenario.atmosphere.loss_at(55.0, 1550.0) == pytest.approx(1.55)

    def test_digest_covers_elevation_table_bytes(self, tmp_path, snspd_doc):
        table = tmp_path / "measured.txt"
        doc = copy.deepcopy(snspd_doc)
        doc["atmosphere"]["elevation_table_path"] = str(table)
        table.write_text("20 2.5\n90 0.6\n")
        first = scenario_from_dict(doc).digest()
        table.write_text("20 3.5\n90 0.6\n")
        assert scenario_from_dict(doc).digest() != first

    def test_time_bin_slot_rate_option(self):
        doc = json.loads(
            (Path(__file__).resolve().parents[1] / "src/satqkd/scenarios/snspd_tb_2decoy.json").read_text()
        )
        doc["source"]["hold_slot_rate"] = True
        scenario = scenario_from_dict(doc)
        assert scenario.source.pulse_rate_hz == pytest.approx(1e9 / 3.0)
        pol = json.loads(
            (Path(__file__).resolve().parents[1] / "src/satqkd/scenarios/snspd_pol_2decoy.json").read_text()
        )
        pol["source"]["hold_slot_rate"] = True
        with pytest.raises(ScenarioError, match="hold_slot_rate"):
            scenario_from_dict(pol)

    @pytest.mark.parametrize("field, repeated", [
        ("altitude_km", '"altitude_km": 900.0, "altitude_km": 567.0'),
        ("n_decoys", '"n_decoys": 1, "n_decoys": 2'),
    ], ids=["nested", "top-level"])
    def test_duplicate_json_key_rejected(self, tmp_path, field, repeated):
        """json keeps the last of two equal keys; the loader names the key
        instead of loading 567 km where the file also says 900."""
        path = Path(__file__).resolve().parents[1] / "src/satqkd/scenarios/snspd_pol_2decoy.json"
        text = path.read_text()
        single = repeated.split(", ")[1]
        assert text.count(single) == 1
        doubled = tmp_path / "doubled.json"
        doubled.write_text(text.replace(single, repeated))
        with pytest.raises(ScenarioError, match=f"duplicate JSON key '{field}'"):
            load_scenario(doubled)


def write_scenario(tmp_path: Path, doc: dict, name: str = "scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def fast_doc(snspd_doc: dict) -> dict:
    doc = copy.deepcopy(snspd_doc)
    doc["optimizer"] = dict(FAST_OPTIMIZER)
    doc["sample_dt_s"] = 5.0
    return doc


class TestCliCommands:
    def test_pass_csv_round_trip(self, tmp_path, snspd_doc):
        scenario_path = write_scenario(tmp_path, snspd_doc)
        out = tmp_path / "out"
        assert main(["pass", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        with open(out / "pass.csv") as f:
            rows = list(csv.DictReader(f))
        scenario = scenario_from_dict(snspd_doc)
        pg = scenario.synth_pass()
        assert len(rows) == len(pg.samples)
        assert len(rows) == int(pg.duration_s) + 1
        for row, sample in zip(rows, pg.samples):
            assert float(row["t_s"]) == sample.t_s
            assert float(row["elevation_deg"]) == sample.elevation_deg
            assert float(row["slant_range_km"]) == sample.slant_range_km
        report = json.loads((out / "report.json").read_text())
        assert report["scenario_digest"] == scenario.digest()

    def test_budget_rows_additive(self, tmp_path, snspd_doc):
        scenario_path = write_scenario(tmp_path, snspd_doc)
        out = tmp_path / "out"
        assert main(["budget", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        term_fields = [
            "tx_gain_db", "free_space_loss_db", "atmospheric_loss_db", "pointing_loss_db",
            "rx_area_gain_db", "rx_path_loss_db", "coupling_loss_db",
        ]
        with open(out / "budget.csv") as f:
            rows = list(csv.DictReader(f))
        assert rows
        for row in rows:
            total = sum(float(row[f]) for f in term_fields)
            assert abs(total - float(row["total_db"])) < 1e-9
        culmination = [r for r in rows if float(r["t_s"]) == 0.0]
        assert float(culmination[0]["total_db"]) == pytest.approx(37.011405045, abs=1e-6)

    def test_skl_command(self, tmp_path, snspd_doc):
        scenario_path = write_scenario(tmp_path, snspd_doc)
        out = tmp_path / "out"
        code = main([
            "skl", "--scenario", str(scenario_path), "--out", str(out),
            "--mu", "0.58", "--nu", "0.25", "--p-mu", "0.54", "--p-nu", "0.34",
            "--p-z", "0.88", "--min-elevation", "20",
        ])
        doc = json.loads((out / "skl.json").read_text())
        assert code == 0
        assert doc["skl_bits"] > 0
        assert doc["params"]["mu"] == 0.58

    @pytest.mark.parametrize("value,code", [("10", 0), ("-1", 2), ("95", 2), ("nan", 2)])
    def test_skl_min_elevation_range(self, tmp_path, capsys, value, code):
        """Any cut in [0, 90] is accepted, one below the pass's lowest sample
        too; any other value is bad input that names the field."""
        assert main(["skl", "--scenario", "bundled:snspd_pol_2decoy", f"--min-elevation={value}",
                     "--out", str(tmp_path)]) == code
        assert ("min_elevation_deg" in capsys.readouterr().err) == bool(code)

    def test_shared_parser_keeps_no_options_between_calls(self, tmp_path, snspd_doc):
        """main() reuses one parser; an option given to one call does not
        leak into the next."""
        scenario_path = write_scenario(tmp_path, snspd_doc)
        args = ["skl", "--scenario", str(scenario_path), "--out"]
        assert main([*args, str(tmp_path / "a"), "--mu", "0.5"]) == 0
        assert main([*args, str(tmp_path / "b")]) == 0
        first = json.loads((tmp_path / "a" / "skl.json").read_text())
        second = json.loads((tmp_path / "b" / "skl.json").read_text())
        assert first["params"]["mu"] == 0.5
        assert second["params"]["mu"] == snspd_doc["source"]["signal_intensity"]
        assert second["params"]["mu"] != 0.5

    def test_skl_aborted_exit_code(self, tmp_path, snspd_doc):
        doc = copy.deepcopy(snspd_doc)
        doc["detector"]["dark_count_rate_hz"] = 5e7
        doc["detector"]["efficiency"] = 0.01
        scenario_path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        code = main(["skl", "--scenario", str(scenario_path), "--out", str(out)])
        assert code == 3
        assert json.loads((out / "skl.json").read_text())["aborted"] is True

    def test_optimize_command(self, tmp_path, snspd_doc):
        scenario_path = write_scenario(tmp_path, fast_doc(snspd_doc))
        out = tmp_path / "out"
        assert main(["optimize", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        doc = json.loads((out / "optimize.json").read_text())
        assert doc["skl_bits"] > 0
        assert (out / "optimize_trace.csv").exists()

    def test_invalid_scenario_exit_code(self, tmp_path, snspd_doc):
        doc = copy.deepcopy(snspd_doc)
        doc["station"]["min_elevation_deg"] = -3.0
        scenario_path = write_scenario(tmp_path, doc)
        assert main(["pass", "--scenario", str(scenario_path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "section,field,value",
        [
            ("transmitter", "pointing_loss_db", math.nan),
            ("detector", "dead_time_ns", math.nan),
            ("detector", "dark_count_rate_hz", math.inf),
            ("orbit", "altitude_km", math.nan),
            ("security", "f_ec", math.nan),
            ("scenario", "sample_dt_s", math.nan),
            ("detector", "n_detectors", 2.7),
            ("optimizer", "coarse_grid_steps", 2.9),
            ("source", "p_mu", "0.5"),
            ("scenario", "n_decoys", True),
        ],
    )
    def test_bad_number_exits_with_validation_code(self, tmp_path, capsys, snspd_doc, section, field, value):
        """NaN, infinities, strings, bools and truncated integers are rejected
        on load, naming the field, instead of being coerced or propagated."""
        doc = copy.deepcopy(snspd_doc)
        (doc if section == "scenario" else doc[section])[field] = value
        scenario_path = write_scenario(tmp_path, doc)
        assert main(["skl", "--scenario", str(scenario_path), "--out", str(tmp_path / "o")]) == 2
        assert f"{section}.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["zenith_loss_db", "sky_radiance_w_m2_sr_nm"])
    @pytest.mark.parametrize("key", ["nan", "inf", "-1"])
    def test_bad_wavelength_key_exits_with_validation_code(self, tmp_path, capsys, snspd_doc,
                                                           field, key):
        """Wavelength keys must be positive and finite; the error names the field."""
        doc = copy.deepcopy(snspd_doc)
        doc["atmosphere"][field][key] = 0.4
        with pytest.raises(ScenarioError, match=f"atmosphere.{field}"):
            scenario_from_dict(doc)
        scenario_path = write_scenario(tmp_path, doc)
        assert main(["skl", "--scenario", str(scenario_path), "--out", str(tmp_path / "o")]) == 2
        assert f"atmosphere.{field}" in capsys.readouterr().err

    def test_bad_elevation_table_exits_with_validation_code(self, tmp_path, capsys, snspd_doc):
        table = tmp_path / "atm.txt"
        table.write_text("20 2.0\nnan 1.0\n90 0.5\n")
        doc = copy.deepcopy(snspd_doc)
        doc["atmosphere"]["elevation_table_path"] = str(table)
        scenario_path = write_scenario(tmp_path, doc)
        assert main(["budget", "--scenario", str(scenario_path), "--out", str(tmp_path / "o")]) == 2
        assert f"{table}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["sweep-elevation", "--scenario", "bundled:snspd_pol_2decoy",
              "--max-elevations", "30,abc"], "--max-elevations"),
            (["sweep-elevation", "--scenario", "bundled:snspd_pol_2decoy",
              "--max-elevations", "nan"], "--max-elevations"),
            (["sweep-elevation", "--scenario", "bundled:snspd_pol_2decoy",
              "--max-elevations", ","], "--max-elevations"),
            (["relay-demo", "--lengths", "64,8.0"], "--lengths"),
            (["relay-demo", "--lengths", "12"], "--lengths"),
            (["relay-demo", "--lengths", ""], "--lengths"),
            (["sweep-elevation", "--scenario", "bundled:snspd_pol_2decoy",
              "--max-elevations=-5"], "--max-elevations"),
            (["sweep-elevation", "--scenario", "bundled:snspd_pol_2decoy",
              "--max-elevations", "0"], "--max-elevations"),
            (["sweep-elevation", "--scenario", "bundled:snspd_pol_2decoy",
              "--max-elevations", "95"], "--max-elevations"),
        ],
    )
    def test_bad_list_flag_exits_with_validation_code(self, tmp_path, capsys, argv, flag):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [("--thinning", "0"), ("--thinning", "0.5"), ("--thinning", "nan"), ("--thinning", "inf"),
         ("--seeds", "0"), ("--seeds", "-1")],
    )
    def test_bad_mc_validate_flag_exits_with_validation_code(self, tmp_path, capsys, flag, value):
        """A thinning below 1 (or not finite) and a seed count below 1 are
        bad input: no division by zero, and no pass that checked nothing."""
        out = tmp_path / "out"
        assert main(["mc-validate", "--scenario", "bundled:snspd_pol_1decoy",
                     flag, value, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not (out / "mc_validate.json").exists()

    @pytest.mark.parametrize("argv", [["mc-validate", "--scenario", "bundled:snspd_pol_1decoy", "--seed", "-3"],
                                      ["relay-demo", "--seed", "-1"]])
    def test_negative_seed_exits_with_validation_code(self, tmp_path, capsys, argv):
        """A negative --seed is bad input, named on one line: not a numpy
        ValueError with a traceback."""
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_untyped_value_error_is_a_bug_not_bad_input(self, tmp_path, monkeypatch):
        """Only the typed input errors exit 2; a bare ValueError from inside a
        command propagates, so the interpreter prints it and exits 1."""
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "compute_breakdowns", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["budget", "--scenario", "bundled:snspd_pol_2decoy", "--out", str(tmp_path)])

    def test_integral_json_numbers_load(self, snspd_doc):
        doc = copy.deepcopy(snspd_doc)
        doc["orbit"]["altitude_km"] = 567
        doc["detector"]["n_detectors"] = 1.0
        scenario = scenario_from_dict(doc)
        assert scenario.orbit.altitude_km == 567.0
        assert scenario.detector.n_detectors == 1

    def test_relay_demo(self, tmp_path):
        out = tmp_path / "out"
        assert main(["relay-demo", "--seed", "3", "--lengths", "256,1024", "--out", str(out)]) == 0
        doc = json.loads((out / "relay_demo.json").read_text())
        assert doc["round_trip_ok"] is True
        assert doc["residual_secret_bits"] == 0
        assert doc["consumed_bits"] == 2 * doc["delivered_bits"]

    @pytest.mark.parametrize("command", ["pass", "budget", "skl", "optimize", "sweep-elevation"])
    def test_seed_rejected_on_deterministic_commands(self, command, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", "bundled:snspd_pol_2decoy", "--seed", "1",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["skl", "--scenario", "bundled:snspd_pol_2decoy"],
        ["optimize", "--scenario", "bundled:snspd_pol_2decoy"],
        ["mc-validate", "--scenario", "bundled:snspd_pol_2decoy"],
        ["relay-demo"],
    ])
    def test_format_rejected_on_commands_without_a_table(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "json", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_mc_validate(self, tmp_path, snspd_doc):
        scenario_path = write_scenario(tmp_path, snspd_doc)
        out = tmp_path / "out"
        code = main([
            "mc-validate", "--scenario", str(scenario_path), "--out", str(out),
            "--seeds", "3", "--seed", "100", "--thinning", "1e6",
        ])
        doc = json.loads((out / "mc_validate.json").read_text())
        assert code == 0
        assert doc["all_within_3_sigma"] is True

    def test_bundled_scenario_reference(self, tmp_path):
        out = tmp_path / "out"
        assert main(["pass", "--scenario", "bundled:snspd_pol_2decoy", "--out", str(out)]) == 0

    def test_json_format_for_tables(self, tmp_path, snspd_doc):
        scenario_path = write_scenario(tmp_path, snspd_doc)
        out = tmp_path / "out"
        assert main([
            "pass", "--scenario", str(scenario_path), "--out", str(out), "--format", "json",
        ]) == 0
        rows = json.loads((out / "pass.json").read_text())
        assert isinstance(rows, list) and rows[0]["elevation_deg"] >= 20.0


class TestCliDeterminism:
    def run_twice(self, argv_builder, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(argv_builder(out)) in (0, 3)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_pass_and_budget_reproducible(self, tmp_path, snspd_doc):
        scenario_path = write_scenario(tmp_path, snspd_doc)
        self.run_twice(
            lambda out: ["pass", "--scenario", str(scenario_path), "--out", str(out)], tmp_path
        )
        self.run_twice(
            lambda out: ["budget", "--scenario", str(scenario_path), "--out", str(out)], tmp_path
        )

    def test_optimize_reproducible(self, tmp_path, snspd_doc):
        scenario_path = write_scenario(tmp_path, fast_doc(snspd_doc))
        self.run_twice(
            lambda out: ["optimize", "--scenario", str(scenario_path), "--out", str(out)],
            tmp_path,
        )

    def test_relay_demo_reproducible(self, tmp_path):
        self.run_twice(
            lambda out: ["relay-demo", "--seed", "9", "--out", str(out)], tmp_path
        )


class TestCliFileContract:
    """report.json lists exactly the other files a command wrote and names
    the command; a command that fails on bad input writes nothing."""

    @pytest.mark.parametrize("argv", [
        ["pass"],
        ["pass", "--format", "json"],
        ["budget"],
        ["skl"],
        ["optimize"],
        ["sweep-elevation", "--max-elevations", "40,70"],
        ["mc-validate", "--seeds", "1", "--thinning", "1e4", "--seed", "5"],
        ["relay-demo", "--lengths", "64", "--seed", "5"],
    ], ids=" ".join)
    def test_report_lists_the_files_written(self, tmp_path, snspd_doc, argv):
        command = argv[0]
        if command != "relay-demo":
            argv = [*argv, "--scenario", str(write_scenario(tmp_path, fast_doc(snspd_doc)))]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["outputs"] == sorted(p.name for p in out.iterdir() if p.name != "report.json")
        assert report["command"] == command
        assert report["seed"] == (5 if command in ("mc-validate", "relay-demo") else None)

    @pytest.mark.parametrize("argv", [
        ["sweep-elevation", "--scenario", "bundled:snspd_pol_2decoy", "--max-elevations", "0"],
        ["relay-demo", "--lengths", "7"],
        ["mc-validate", "--scenario", "bundled:snspd_pol_1decoy", "--seeds", "0"],
        ["skl", "--scenario", "bundled:snspd_pol_2decoy", "--min-elevation", "95"],
    ], ids=" ".join)
    def test_failed_command_writes_nothing(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    def test_failed_optimize_writes_nothing(self, tmp_path, snspd_doc):
        doc = fast_doc(snspd_doc)
        doc["station"]["min_elevation_deg"] = -3.0
        out = tmp_path / "out"
        assert main(["optimize", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 2
        assert not out.exists()

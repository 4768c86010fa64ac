import json
import os
import pickle
import stat

import numpy as np
import pytest

from pmdiag.cli import StageError
from pmdiag.conformal import BadDistributionError
from pmdiag.core import (
    Dataset,
    DatasetIoError,
    DuplicateIdError,
    FaultClass,
    Manoeuvre,
    ParseError,
    ValidationError,
    atomic_write_text,
    load_dataset,
    save_dataset,
    validate_manoeuvre,
)
from pmdiag.model import NonFiniteInputError

from conftest import AWKWARD_FLOATS


def make_manoeuvre(samples, mid="m1", rate=100.0, label=None):
    return Manoeuvre(
        id=mid, technology="MJ", timestamp=0.0, samples=np.asarray(samples, float),
        sample_rate=rate, label=label,
    )


class TestFaultClass:
    def test_codes_stable(self):
        assert [int(c) for c in FaultClass] == [0, 1, 2, 3, 4]
        assert [c.name for c in FaultClass] == [
            "Nominal", "Obstacle", "Friction", "PowerSupply", "Misalignment",
        ]

    def test_name_round_trip(self):
        for c in FaultClass:
            assert FaultClass.from_name(c.name) is c
        with pytest.raises(ValueError):
            FaultClass.from_name("Gremlins")


class TestValidate:
    def test_valid_manoeuvre(self):
        m = make_manoeuvre(np.ones(3000))
        assert validate_manoeuvre(m) is None

    def test_too_short(self):
        issue = validate_manoeuvre(make_manoeuvre(np.ones(10)))
        assert issue is not None and issue.rule == "TooShort"

    def test_boundary_length(self):
        assert validate_manoeuvre(make_manoeuvre(np.ones(32))) is None
        assert validate_manoeuvre(make_manoeuvre(np.ones(31))).rule == "TooShort"

    def test_non_finite_sample_reports_index(self):
        samples = np.ones(64)
        samples[7] = np.nan
        issue = validate_manoeuvre(make_manoeuvre(samples))
        assert issue.rule == "NonFiniteSample"
        assert issue.detail == "7"

    def test_bad_sample_rate(self):
        issue = validate_manoeuvre(make_manoeuvre(np.ones(64), rate=0.0))
        assert issue.rule == "BadSampleRate"

    def test_validation_is_total(self):
        # never raises, even on garbage values
        samples = np.full(64, np.inf)
        issue = validate_manoeuvre(make_manoeuvre(samples, rate=-3.0))
        assert issue.rule == "NonFiniteSample"


class TestDataset:
    def test_duplicate_id_rejected(self):
        a = make_manoeuvre(np.ones(64), "m1")
        b = make_manoeuvre(np.ones(64), "m1")
        with pytest.raises(DuplicateIdError):
            Dataset(manoeuvres=(a, b), provenance="test")

    def test_class_counts(self):
        ms = [
            make_manoeuvre(np.ones(64), f"m{i}", label=FaultClass(i % 2)) for i in range(5)
        ]
        ds = Dataset(manoeuvres=tuple(ms), provenance="test")
        assert ds.class_counts() == {FaultClass.Nominal: 3, FaultClass.Obstacle: 2}


class TestLoad:
    def line(self, mid="m1", **overrides):
        obj = {
            "id": mid, "technology": "MJ", "timestamp": 1.5,
            "sample_rate": 100.0, "samples": [1.0] * 64,
        }
        obj.update(overrides)
        return json.dumps(obj)

    def test_two_valid_lines_in_order(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text(self.line("a") + "\n" + self.line("b") + "\n")
        ds = load_dataset(p)
        assert [m.id for m in ds] == ["a", "b"]

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text(self.line("a") + "\n" + self.line("b") + "\n{oops\n")
        with pytest.raises(ParseError) as err:
            load_dataset(p)
        assert err.value.line_number == 3

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text(self.line("m1") + "\n" + self.line("m1") + "\n")
        with pytest.raises(DuplicateIdError) as err:
            load_dataset(p)
        assert err.value.manoeuvre_id == "m1"

    def test_validation_error_carries_rule(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text(self.line("short", samples=[1.0] * 8) + "\n")
        with pytest.raises(ValidationError) as err:
            load_dataset(p)
        assert err.value.manoeuvre_id == "short"
        assert err.value.rule == "TooShort"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text(self.line("a", voltage=3.0) + "\n")
        with pytest.raises(ParseError):
            load_dataset(p)

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text(self.line("a", label="NotAClass") + "\n")
        with pytest.raises(ParseError):
            load_dataset(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetIoError):
            load_dataset(tmp_path / "nope.jsonl")

    def test_lines_end_at_lf_only(self, tmp_path):
        # U+2028, U+2029 and U+0085 may stand raw in a JSON string, and
        # str.splitlines() breaks lines at each of them
        mid = "field\u2028\u2029\x851"
        raw = json.dumps(json.loads(self.line(mid)), ensure_ascii=False)
        p = tmp_path / "ds.jsonl"
        p.write_text(self.line("a") + "\r\n" + raw, encoding="utf-8")
        assert [m.id for m in load_dataset(p)] == ["a", mid]
        p.write_text(raw + "\n{oops\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_dataset(p)
        assert err.value.line_number == 2

    def test_lone_cr_is_whitespace(self, tmp_path):
        # a CR alone ends no line, and JSON reads it as whitespace
        p = tmp_path / "ds.jsonl"
        p.write_bytes(self.line("a").replace(', "technology"', ',\r"technology"').encode() + b"\n")
        assert [m.id for m in load_dataset(p)] == ["a"]

    @pytest.mark.parametrize(
        "samples, shape",
        [
            (["0.5"] * 64, "numeric"),
            ([1.0] * 63 + ["x"], "numeric"),
            ([10**400] * 64, "numeric"),
            ([[1.0] * 64], "flat"),
            ([1.0] * 63 + [[1.0]], "flat"),
            (1.0, "flat"),
            ([True, False] * 32, "numeric"),
            ([1.0] * 63 + [False], "numeric"),
        ],
        ids=["numeric_strings", "one_string", "int_beyond_float", "nested", "one_nested", "scalar",
             "booleans", "one_false"],
    )
    def test_samples_must_be_a_flat_array_of_numbers(self, tmp_path, samples, shape):
        p = tmp_path / "ds.jsonl"
        p.write_text(self.line("a", samples=samples) + "\n")
        with pytest.raises(ParseError, match=f"^line 1: samples is not a {shape} array$"):
            load_dataset(p)


    @pytest.mark.parametrize("first", ["samples", "id"])
    def test_boolean_samples_caught_in_any_key_order(self, tmp_path, first):
        # json reads true as True, which a float conversion takes as 1.0: only a
        # line that holds a "u" or an "f" between its first "[" and its last
        # "]" is checked item by item, and the id or label may hold either
        obj = json.loads(self.line("field-1", label="PowerSupply"))
        ordered = {first: obj.pop(first), **obj}
        p = tmp_path / "ds.jsonl"
        p.write_text(json.dumps(ordered) + "\n")
        assert [m.id for m in load_dataset(p)] == ["field-1"]
        p.write_text(json.dumps({**ordered, "samples": [1.0] * 63 + [True]}) + "\n")
        with pytest.raises(ParseError, match="^line 1: samples is not a numeric array$"):
            load_dataset(p)


class TestSaveRoundTrip:
    def test_empty_dataset(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        save_dataset(Dataset(manoeuvres=(), provenance="x"), p)
        assert p.read_text() == ""
        assert len(load_dataset(p)) == 0

    def test_round_trip_exact(self, tmp_path):
        # awkward float values must survive exactly
        rng = np.random.default_rng(17)
        manoeuvres = []
        for i in range(60):
            n = int(rng.integers(32, 400))
            samples = rng.normal(0, 1e3, n) * 10.0 ** rng.integers(-12, 12)
            label = None if i % 3 == 0 else FaultClass(int(rng.integers(0, 5)))
            manoeuvres.append(
                Manoeuvre(
                    id=f"m{i}", technology="P80",
                    timestamp=float(rng.normal() * 1e9),
                    samples=samples,
                    sample_rate=float(abs(rng.normal()) + 0.1),
                    label=label,
                )
            )
        ds = Dataset(manoeuvres=tuple(manoeuvres), provenance="rt")
        p = tmp_path / "ds.jsonl"
        save_dataset(ds, p)
        back = load_dataset(p)
        assert len(back) == len(ds)
        for a, b in zip(ds, back):
            assert a.id == b.id
            assert a.technology == b.technology
            assert a.timestamp == b.timestamp
            assert a.sample_rate == b.sample_rate
            assert a.label == b.label
            assert np.array_equal(a.samples, b.samples)

    def test_bytes_equal_float_list_reference(self, tmp_path):
        samples = np.tile(AWKWARD_FLOATS, 5)
        ds = Dataset(
            manoeuvres=(
                make_manoeuvre(samples, "a", label=FaultClass.Friction),
                make_manoeuvre(-samples[::-1], "b"),
            ),
            provenance="x",
        )
        reference = "".join(
            json.dumps({
                "id": m.id, "technology": m.technology, "timestamp": m.timestamp,
                "sample_rate": m.sample_rate, "samples": [float(v) for v in m.samples],
                **({"label": m.label.name} if m.label is not None else {}),
            }) + "\n"
            for m in ds
        )
        p = tmp_path / "ds.jsonl"
        save_dataset(ds, p)
        assert p.read_bytes() == reference.encode("utf-8")

    def test_write_to_directory_path_fails(self, tmp_path):
        ds = Dataset(manoeuvres=(make_manoeuvre(np.ones(64)),), provenance="x")
        with pytest.raises(DatasetIoError):
            save_dataset(ds, tmp_path)

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_file_mode_is_plain_open_mode(self, tmp_path, umask, mode):
        ds = Dataset(manoeuvres=(make_manoeuvre(np.ones(64)),), provenance="x")
        previous = os.umask(umask)
        try:
            save_dataset(ds, tmp_path / "ds.jsonl")
            atomic_write_text(tmp_path / "report.json", "{}\n")
            with open(tmp_path / "plain.json", "w") as fh:
                fh.write("{}\n")
        finally:
            os.umask(previous)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        # the temp file was renamed, not left beside the output
        assert modes == {"ds.jsonl": mode, "report.json": mode, "plain.json": mode}

    def test_parts_make_one_file(self, tmp_path):
        atomic_write_text(tmp_path / "out.jsonl", "a\n", "", "bc\n", "d")
        assert (tmp_path / "out.jsonl").read_bytes() == b"a\nbc\nd"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_part_that_fails_mid_write_leaves_no_file(self, tmp_path):
        # the first part is larger than the write buffer, so it reaches the
        # temp file before the lone surrogate of the second fails to encode
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "out.jsonl", "a\n" * 50_000, "\ud800\n")
        assert list(tmp_path.iterdir()) == []

    def test_samples_immutable(self):
        m = make_manoeuvre(np.ones(64))
        with pytest.raises(ValueError):
            m.samples[0] = 2.0


class TestErrorPickling:
    @pytest.mark.parametrize(
        "error",
        [
            ParseError(3, "bad"),
            ValidationError("m7", "TooShort", "length 4 < 32"),
            ValidationError("m7", "TooShort"),
            DuplicateIdError("m7"),
            StageError("train", ParseError(3, "bad")),
            NonFiniteInputError("input value 2 is not finite", 7),
            BadDistributionError("negative probability entry", 3),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_round_trip(self, error):
        # an error raised in a worker process reaches its parent through pickle
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert copy.args == error.args
        assert {k: str(v) for k, v in vars(copy).items()} == {
            k: str(v) for k, v in vars(error).items()
        }

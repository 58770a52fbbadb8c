import io as stdio
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvmflow import flow
from kvmflow import io as kio
from kvmflow.errors import ParseError, ValidationError


class TestParseInput:
    def test_offdiag_document(self):
        doc = kio.parse_input(b'{"n":4,"offdiag":[5,-6,-2]}')
        assert doc.n == 4
        assert doc.symmetric is None
        np.testing.assert_array_equal(doc.offdiag, [5.0, -6.0, -2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            kio.parse_input('{"n":3,"offdiag":[1]}')

    def test_symmetric_document(self):
        doc = kio.parse_input('{"symmetric":[[0,1],[1,0]]}')
        assert doc.n == 2
        assert doc.offdiag is None
        np.testing.assert_array_equal(doc.symmetric, [[0.0, 1.0], [1.0, 0.0]])

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError, match=r"line 1 column"):
            kio.parse_input('{"n": 4,')

    def test_exactly_one_matrix_field(self):
        with pytest.raises(ValidationError):
            kio.parse_input('{"n":2,"offdiag":[1],"symmetric":[[0]]}')
        with pytest.raises(ValidationError):
            kio.parse_input('{"n":2}')

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            kio.parse_input('{"n":2,"offdiag":[1],"extra":true}')

    def test_nonfinite_rejected(self):
        with pytest.raises(ParseError):
            kio.parse_input('{"n":2,"offdiag":[NaN]}')

    def test_non_number_entry_rejected(self):
        with pytest.raises(ValidationError):
            kio.parse_input('{"n":2,"offdiag":[true]}')

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValidationError):
            kio.parse_input('{"symmetric":[[0,1],[2,0]]}')

    def test_dimension_echo_must_match(self):
        with pytest.raises(ValidationError):
            kio.parse_input('{"n":3,"symmetric":[[0,1],[1,0]]}')

    def test_label_round_trip(self):
        doc = kio.parse_input('{"label":"run-1","n":2,"offdiag":[3]}')
        assert doc.label == "run-1"

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=0, max_size=12))
    def test_write_parse_round_trip_is_bit_exact(self, entries):
        doc = kio.MatrixInputDocument(
            n=len(entries) + 1, offdiag=np.array(entries, dtype=np.float64))
        text = json.dumps(kio.document_to_dict(doc))
        back = kio.parse_input(text)
        assert back.n == doc.n
        np.testing.assert_array_equal(back.offdiag, doc.offdiag)


def _small_trajectory(ex1):
    return flow.integrate(ex1, flow.IntegratorConfig(t_max=0.1, eq_eps=0.0,
                                                     record_stride=5))


class TestTrajectoryCsv:
    def test_stationary_run_writes_two_lines(self):
        traj = flow.integrate([2.0, 0.0, -1.0], validate=False)
        sink = stdio.StringIO()
        kio.write_trajectory_csv(traj, sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0] == "t,a_1,a_2,a_3,f,k_norm,spec_drift"
        assert lines[1].startswith("0,2,0,-1,")

    def test_example1_first_row_is_initial_condition(self, ex1):
        traj = _small_trajectory(ex1)
        sink = stdio.StringIO()
        kio.write_trajectory_csv(traj, sink)
        first = sink.getvalue().splitlines()[1].split(",")
        assert first[1:4] == ["5", "-6", "-2"]

    def test_column_count_is_n_plus_3(self, ex1):
        traj = _small_trajectory(ex1)
        sink = stdio.StringIO()
        kio.write_trajectory_csv(traj, sink)
        for line in sink.getvalue().splitlines():
            assert len(line.split(",")) == traj.n + 3

    def test_rows_parse_back_bit_exactly(self, ex1):
        traj = _small_trajectory(ex1)
        sink = stdio.StringIO()
        kio.write_trajectory_csv(traj, sink)
        lines = sink.getvalue().splitlines()[1:]
        assert len(lines) == traj.times.size
        for i, line in enumerate(lines):
            vals = [float(tok) for tok in line.split(",")]
            assert vals[0] == traj.times[i]
            assert vals[1:4] == list(traj.states[i])
            assert vals[4] == traj.f_values[i]
            assert vals[5] == traj.k_norms[i]
            assert vals[6] == traj.spec_drift[i]

    def test_writes_to_path(self, tmp_path, ex1):
        target = tmp_path / "traj.csv"
        kio.write_trajectory_csv(_small_trajectory(ex1), target)
        assert target.read_text().startswith("t,a_1,")


class TestWriteSummary:
    def test_key_order_is_fixed(self):
        summary = kio.build_summary(status="converged", overall=True)
        assert list(summary) == list(kio._SUMMARY_KEYS)

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="predicted"):
            kio.build_summary(status="converged", predicted=[1.0])

    def test_plain_dict_passthrough_and_numpy_conversion(self):
        sink = stdio.StringIO()
        kio.write_summary({"x": np.float64(1.5), "y": np.arange(3)}, sink)
        assert json.loads(sink.getvalue()) == {"x": 1.5, "y": [0, 1, 2]}

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError):
            kio.write_summary(object(), stdio.StringIO())

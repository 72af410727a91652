import numpy as np
import pytest

from gpimpute.data import (
    DegenerateColumnError,
    EmptyWindowError,
    MaskConsistencyError,
    ObservationTable,
    ParseError,
    RawTable,
    SchemaError,
    SyntheticConfig,
    apply_mask,
    destandardise,
    discretise_hourly,
    generate_synthetic_window,
    ingest_csv,
    make_mask_plan,
    scale_times,
    standardise,
)

ROLES = {"ph": "output", "pco2": "covariate"}


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestIngest:
    def test_numeric_hours(self, tmp_path):
        path = write(tmp_path, "time,ph,pco2\n0.5,7.4,40\n1.5,,40.5\n")
        raw = ingest_csv(path, {"columns": ["ph", "pco2"]})
        assert raw.names == ["ph", "pco2"]
        assert raw.times_hours.tolist() == [0.5, 1.5]
        assert raw.values[0].tolist() == [7.4, 40.0]
        assert np.isnan(raw.values[1, 0])

    def test_iso_timestamps(self, tmp_path):
        path = write(
            tmp_path,
            "time,ph\n2024-01-01T00:00:00,7.4\n2024-01-01T02:30:00,7.3\n",
        )
        raw = ingest_csv(path, {"columns": ["ph"]})
        assert raw.times_hours[1] - raw.times_hours[0] == pytest.approx(2.5)

    def test_sorts_by_time(self, tmp_path):
        path = write(tmp_path, "time,ph\n3,7.1\n1,7.2\n2,7.3\n")
        raw = ingest_csv(path, {"columns": ["ph"]})
        assert raw.times_hours.tolist() == [1.0, 2.0, 3.0]
        assert raw.values[:, 0].tolist() == [7.2, 7.3, 7.1]

    def test_missing_declared_column(self, tmp_path):
        path = write(tmp_path, "time,ph\n0,7.4\n")
        with pytest.raises(SchemaError, match="pco2"):
            ingest_csv(path, {"columns": ["ph", "pco2"]})

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "timestamp,ph\n0,7.4\n")
        with pytest.raises(SchemaError, match="time"):
            ingest_csv(path, {"columns": ["ph"]})

    def test_bad_value_reports_line(self, tmp_path):
        path = write(tmp_path, "time,ph\n0,7.4\n1,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            ingest_csv(path, {"columns": ["ph"]})

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = write(tmp_path, "time,ph\nyesterday,7.4\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest_csv(path, {"columns": ["ph"]})


class TestDiscretise:
    def test_bucket_means(self):
        raw = RawTable(
            times_hours=np.array([0.1, 0.7, 2.2]),
            names=["ph", "pco2"],
            values=np.array([[7.0, 40.0], [7.2, np.nan], [7.4, 42.0]]),
        )
        table = discretise_hourly(raw, ROLES)
        assert table.n == 3  # hours 0, 1, 2
        assert table.values[0, 0] == pytest.approx(7.1)  # mean of the two hour-0 obs
        assert table.values[0, 1] == pytest.approx(40.0)
        assert not table.mask[1].any()  # empty hour bucket stays missing
        assert table.mask[2].all()
        assert table.times.tolist() == [0.0, 0.5, 1.0]

    def test_empty_raises(self):
        raw = RawTable(times_hours=np.empty(0), names=["ph"], values=np.empty((0, 1)))
        with pytest.raises(EmptyWindowError):
            discretise_hourly(raw, {"ph": "output"})

    def test_scale_times_single_point(self):
        assert scale_times(np.array([5.0])).tolist() == [0.0]
        assert scale_times(np.array([2.0, 4.0, 6.0])).tolist() == [0.0, 0.5, 1.0]


def small_table(values, mask):
    values = np.asarray(values, dtype=float)
    return ObservationTable(
        times=np.linspace(0, 1, values.shape[0]),
        names=["ph", "pco2"],
        values=values,
        mask=np.asarray(mask, dtype=bool),
        roles=ROLES,
    )


class TestStandardise:
    def test_two_point_column_maps_to_unit_scores(self):
        table = small_table([[1.0, 0.0], [3.0, 1.0]], [[True, True], [True, True]])
        out, record = standardise(table)
        # two observed points standardise to -1/sqrt(2)... actually with ddof=1
        # sd of {1,3} is sqrt(2); z-scores are -1/sqrt(2)*... check directly
        assert out.values[:, 0] == pytest.approx([-np.sqrt(2) / 2, np.sqrt(2) / 2])
        assert record.means["ph"] == 2.0
        assert record.sds["ph"] == pytest.approx(np.sqrt(2))

    def test_uses_observed_cells_only(self):
        table = small_table(
            [[1.0, 0.0], [100.0, 1.0], [3.0, 2.0]],
            [[True, True], [False, True], [True, True]],
        )
        _, record = standardise(table)
        assert record.means["ph"] == 2.0  # the masked 100.0 is ignored

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        table = small_table(rng.normal(5, 3, (10, 2)), np.ones((10, 2)))
        std, record = standardise(table)
        back = destandardise(std, record)
        assert np.allclose(back.values, table.values, atol=1e-12)

    def test_degenerate_column(self):
        table = small_table([[1.0, 0.0], [1.0, 1.0]], np.ones((2, 2)))
        with pytest.raises(DegenerateColumnError, match="ph"):
            standardise(table)


class TestMasking:
    def test_per_cell_counts(self):
        rng = np.random.default_rng(0)
        table = small_table(rng.normal(size=(20, 2)), np.ones((20, 2)))
        plan = make_mask_plan(table, 0.3, ["pco2"], seed=1)
        assert len(plan.masked_cells) == round(0.3 * 20)
        masked = apply_mask(table, plan)
        assert (~masked.mask[:, 1]).sum() == 6
        assert masked.mask[:, 0].all()  # untouched column

    def test_masks_only_observed_cells(self):
        rng = np.random.default_rng(1)
        mask = np.ones((20, 2), dtype=bool)
        mask[:10, 1] = False
        table = small_table(rng.normal(size=(20, 2)), mask)
        plan = make_mask_plan(table, 0.5, ["pco2"], seed=2)
        assert len(plan.masked_cells) == 5  # half of the 10 observed
        for i, j in plan.masked_cells:
            assert table.mask[i, j]

    def test_whole_rows(self):
        rng = np.random.default_rng(2)
        table = small_table(rng.normal(size=(20, 2)), np.ones((20, 2)))
        plan = make_mask_plan(table, 0.2, ["ph", "pco2"], seed=3, whole_rows=True)
        rows = {i for i, _ in plan.masked_cells}
        assert len(rows) == 4
        assert len(plan.masked_cells) == 8  # both columns per masked row

    def test_apply_mask_rejects_unobserved(self):
        rng = np.random.default_rng(4)
        mask = np.ones((5, 2), dtype=bool)
        mask[0, 1] = False
        table = small_table(rng.normal(size=(5, 2)), mask)
        from gpimpute.data import MaskPlan

        plan = MaskPlan(0.1, ("pco2",), 0, ((0, 1),))
        with pytest.raises(MaskConsistencyError):
            apply_mask(table, plan)

    def test_plan_determinism(self):
        rng = np.random.default_rng(5)
        table = small_table(rng.normal(size=(30, 2)), np.ones((30, 2)))
        p1 = make_mask_plan(table, 0.25, ["pco2"], seed=9)
        p2 = make_mask_plan(table, 0.25, ["pco2"], seed=9)
        p3 = make_mask_plan(table, 0.25, ["pco2"], seed=10)
        assert p1.masked_cells == p2.masked_cells
        assert p1.masked_cells != p3.masked_cells


class TestSyntheticGenerator:
    def test_shapes_and_roles(self):
        window = generate_synthetic_window(SyntheticConfig(), np.random.default_rng(0))
        t = window.table
        assert t.names == ["ph", "pco2", "sid", "lactate"]
        assert t.roles["ph"] == "output"
        assert t.mask.all()
        assert window.latents_noiseless.shape == (t.n, 3)
        assert window.output_noiseless.shape == (t.n,)
        assert t.times[0] == 0.0 and t.times[-1] == 1.0

    def test_determinism(self):
        a = generate_synthetic_window(SyntheticConfig(), np.random.default_rng(7))
        b = generate_synthetic_window(SyntheticConfig(), np.random.default_rng(7))
        assert np.array_equal(a.table.values, b.table.values)

    def test_length_distribution(self):
        cfg = SyntheticConfig()
        lengths = [
            generate_synthetic_window(cfg, np.random.default_rng(s)).table.n
            for s in range(300)
        ]
        assert min(lengths) >= cfg.min_length
        assert max(lengths) <= cfg.max_length
        # uniform on [19, 115]: mean 67, sd ~28; the sample mean of 300 draws
        # should land well within 3 standard errors
        assert abs(np.mean(lengths) - 67) < 3 * 28 / np.sqrt(300)

    def test_readout_signs(self):
        cfg = SyntheticConfig()
        z = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        out = cfg.readout(z)
        assert out[0] < 0  # CO2-like channel decreases the output
        assert out[1] > 0  # SID-like channel increases it
        assert out[2] < 0  # lactate-like channel decreases it

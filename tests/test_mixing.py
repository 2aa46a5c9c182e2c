"""Token-budget mixture sampling vs an independent DuckDB window-cumsum
oracle: the kept set must equal the greedy (LehmerHash, doc_id)-order prefix
whose running token total stays within each source's budget."""

from __future__ import annotations

import duckdb
import pytest

from clickhouse_data_pipeline_ray.functions.mixing import token_budget_sample

SF_DIR = "/root/testdata/sf0.001"
DOCS = f"{SF_DIR}/documents.parquet"


def _read(ray, num_blocks=None):
    return ray.data.read_parquet(
        DOCS,
        columns=["doc_id", "source", "n_chars"],
        override_num_blocks=num_blocks,
    )


def _oracle(budgets: dict[str, int]) -> set[int]:
    cases = " ".join(
        f"WHEN '{s}' THEN {b}" for s, b in budgets.items()
    )
    return set(
        duckdb.sql(
            f"""
            WITH h AS (
              SELECT doc_id, source, n_chars,
                     (doc_id * 48271) % 2147483647 AS hh
              FROM read_parquet('{DOCS}')
            ),
            c AS (
              SELECT doc_id, source,
                     sum(n_chars) OVER (
                       PARTITION BY source ORDER BY hh, doc_id
                       ROWS UNBOUNDED PRECEDING
                     ) AS cum
              FROM h
            )
            SELECT doc_id FROM c
            WHERE cum <= CASE source {cases} ELSE NULL END
               OR source NOT IN ({', '.join(repr(s) for s in budgets)})
            """
        ).df()["doc_id"]
    )


BUDGET_CASES = [
    {"src0": 5000, "src1": 2000},                 # partial budgets, others whole
    {"src0": 0, "src2": 10_000_000},              # zero budget + budget > total
    {"src0": 137, "src1": 1, "src2": 9999, "src3": 50_000, "src4": 4242},
]


@pytest.mark.parametrize("budgets", BUDGET_CASES)
def test_budget_sample_matches_window_cumsum_oracle(ray_session, budgets):
    got = token_budget_sample(
        _read(ray_session), budgets, tok_col="n_chars"
    ).to_pandas()
    assert set(got["doc_id"]) == _oracle(budgets)
    # kept totals never exceed the budget for budgeted sources
    per_src = got.groupby("source")["n_chars"].sum()
    for s, b in budgets.items():
        assert per_src.get(s, 0) <= b


def test_budget_sample_partitioning_invariant(ray_session):
    budgets = {"src0": 3000, "src3": 1234}
    a = token_budget_sample(_read(ray_session, 1), budgets, tok_col="n_chars")
    b = token_budget_sample(_read(ray_session, 8), budgets, tok_col="n_chars")
    assert set(a.to_pandas()["doc_id"]) == set(b.to_pandas()["doc_id"])


def test_budget_sample_bucket_count_invariant(ray_session):
    budgets = {"src1": 4321, "src4": 777}
    a = token_budget_sample(
        _read(ray_session), budgets, tok_col="n_chars", n_buckets=16
    )
    b = token_budget_sample(
        _read(ray_session), budgets, tok_col="n_chars", n_buckets=4096
    )
    assert set(a.to_pandas()["doc_id"]) == set(b.to_pandas()["doc_id"])


def test_budget_sample_empty_budgets_is_identity(ray_session):
    ds = _read(ray_session)
    out = token_budget_sample(ds, {}, tok_col="n_chars")
    assert out is ds


def test_budget_sample_string_keys(ray_session):
    # the engine's snapshot tables key docs by STRING doc_id — the sampler
    # must handle them (stable hash_array order instead of the Lehmer int
    # permutation); oracle = the same greedy prefix computed independently
    # in pandas over the full (hash, doc_id) sort
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from pandas.util import hash_array

    from clickhouse_data_pipeline_ray.functions.mixing import LEHMER_M

    rng = np.random.default_rng(7)
    n = 1000
    df = pd.DataFrame(
        {
            "doc_id": [f"doc-{i:05d}" for i in range(n)],
            "source": rng.choice(["a", "b", "c"], n),
            "n_tok": rng.integers(1, 400, n),
        }
    )
    budgets = {"a": 9000, "b": 1500}
    ds = ray_session.data.from_arrow(pa.Table.from_pandas(df)).repartition(6)
    got = set(token_budget_sample(ds, budgets).to_pandas()["doc_id"])

    ref = df.copy()
    ref["h"] = (
        hash_array(ref["doc_id"].to_numpy(object)) % np.uint64(LEHMER_M)
    ).astype(np.int64)
    ref = ref.sort_values(["source", "h", "doc_id"], kind="mergesort")
    ref["cum"] = ref.groupby("source")["n_tok"].cumsum()
    want = set(
        ref[
            ref.apply(
                lambda r: r["source"] not in budgets
                or r["cum"] <= budgets[r["source"]],
                axis=1,
            )
        ]["doc_id"]
    )
    assert got == want
    per = token_budget_sample(ds, budgets).to_pandas().groupby("source")["n_tok"].sum()
    for s, b in budgets.items():
        assert per.get(s, 0) <= b


def test_budget_sample_greedy_maximality(ray_session):
    # the kept prefix is maximal: the FIRST excluded doc (in hash order) of a
    # budgeted source would push the running total past the budget
    budgets = {"src2": 6000}
    got = token_budget_sample(
        _read(ray_session), budgets, tok_col="n_chars"
    ).to_pandas()
    all_docs = duckdb.sql(
        f"""
        SELECT doc_id, n_chars,
               (doc_id * 48271) % 2147483647 AS hh
        FROM read_parquet('{DOCS}') WHERE source = 'src2'
        ORDER BY hh, doc_id
        """
    ).df()
    kept = set(got[got["source"] == "src2"]["doc_id"])
    total = 0
    for _, row in all_docs.iterrows():
        if row["doc_id"] in kept:
            total += row["n_chars"]
        else:
            assert total + row["n_chars"] > budgets["src2"]
            break


# ---------------------------------------------------------------- temperature


def test_temperature_budgets_analytic():
    from clickhouse_data_pipeline_ray.functions.mixing import temperature_budgets

    totals = {"web": 8000, "code": 1000, "books": 1000}
    # τ=1: natural proportions of the 5000 budget → 4000/500/500
    b1 = temperature_budgets(totals, 5000, temperature=1.0)
    assert b1 == {"web": 4000, "code": 500, "books": 500}
    # τ=0 with headroom: uniform thirds (largest-remainder, deterministic)
    b0 = temperature_budgets(totals, 2400, temperature=0.0)
    assert b0 == {"web": 800, "code": 800, "books": 800}
    # water-filling: at τ=0 the small sources cap at their totals and the
    # surplus flows to the big one (uniform is impossible at 5000)
    bc = temperature_budgets(totals, 5000, temperature=0.0)
    assert bc == {"web": 3000, "code": 1000, "books": 1000}
    # budget larger than the corpus: everything kept, nothing invented
    ball = temperature_budgets(totals, 10**9, temperature=0.7)
    assert ball == totals
    # zero-budget and empty-corpus edges
    assert temperature_budgets(totals, 0, 0.7) == {k: 0 for k in totals}
    assert temperature_budgets({}, 100, 0.7) == {}


def test_temperature_budgets_monotone_in_tau():
    from clickhouse_data_pipeline_ray.functions.mixing import temperature_budgets

    totals = {"big": 90_000, "small": 10_000}
    shares = []
    for tau in (0.0, 0.3, 0.7, 1.0):
        b = temperature_budgets(totals, 20_000, temperature=tau)
        assert sum(b.values()) == 20_000
        shares.append(b["big"] / 20_000)
    # bigger τ → bigger share for the big source, natural share at τ=1
    assert shares == sorted(shares)
    assert abs(shares[-1] - 0.9) < 0.01


def test_source_token_totals_and_end_to_end(ray_session):
    import ray.data as rd

    from clickhouse_data_pipeline_ray.functions.mixing import (
        source_token_totals,
        temperature_budgets,
        token_budget_sample,
    )

    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    totals = source_token_totals(ds, tok_col="n_chars")
    pdf = ds.to_pandas()
    want = pdf.groupby("source")["n_chars"].sum().to_dict()
    assert totals == {str(k): int(v) for k, v in want.items()}

    budget = sum(totals.values()) // 3
    budgets = temperature_budgets(totals, budget, temperature=0.5)
    assert sum(budgets.values()) == budget
    out = token_budget_sample(ds, budgets, tok_col="n_chars").to_pandas()
    got = out.groupby("source")["n_chars"].sum().to_dict()
    for s, b in budgets.items():
        assert got.get(s, 0) <= b  # never exceeds its derived budget


def test_budget_sample_source_absent_from_corpus(ray_session):
    """A budget for a source the corpus never names keeps every unlisted
    source whole (the oracle's rule); an empty corpus samples nothing."""
    budgets = {"web": 5000}
    ds = _read(ray_session)
    got = token_budget_sample(ds, budgets, tok_col="n_chars").to_pandas()
    assert set(got["doc_id"]) == _oracle(budgets)
    empty = token_budget_sample(ds.limit(0), {"src0": 5000}, tok_col="n_chars")
    assert empty.count() == 0

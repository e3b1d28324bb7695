"""Local oracle checks for the TPC-H-shape relational queries.

The driver runs EVERY ``queries()``/``oracle_sql()`` pair at sf0.01;
this is the fast in-repo version at sf0.001 for the join/aggregate
shapes added after the original registry (Q7/Q9/Q14/Q18/Q19 analogues),
so a refactor of the join/agg operators can't silently drift them.
"""

from __future__ import annotations

import duckdb
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = (
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
)
NEW_QUERIES = [
    "q7_volume_shipping",
    "q9_product_profit",
    "q14_promo_revenue",
    "q18_large_orders",
    "q19_disjunctive_revenue",
    "cust_priority_concat",
    "docs_sample_stratified",
    "docs_mix_upsample",
    "events_outlier_filter",
    # r04 promotions: algorithmic sketch oracles (DuckDB replays the
    # HLL / histogram algorithms bit-exactly) + the chunker golden hash
    "events_ndv_sketch",
    "events_quantile_sketch",
    "flagship_chunks_hash",
    # r04: the end-to-end composition's golden summary (fetch records
    # -> url_dedup -> extract -> curate -> split -> pack -> shards)
    "web_shards_summary",
    # r05: algorithmic Lloyd replay + planted-clone SemDeDup survivors
    # + the per-cell diversity cap
    "embeddings_kmeans",
    "embeddings_semantic_dedup",
    "embeddings_cluster_sample",
    "docs_cluster_terms",
    "docs_incremental_semantic",
    "docs_sample_bottomk",
    # late r05: link-graph module — blocklist filter, integer
    # fixed-point PageRank (unrolled-SQL replay), and the end-to-end
    # pages->hostgraph->rank golden
    "docs_url_blocklist",
    "docs_pagerank",
    "docs_pagerank_weighted",
    "hostgraph_pagerank",
    "hostgraph_anchors",
    "docs_bm25_topk",
    "docs_lm_perplexity",
    "docs_token_drift",
    "docs_expectations",
    "urls_crawl_schedule",
    "bm25_eval",
    "docs_dataset_diff",
    "docs_robots_filter",
    "docs_canonical_dedup",
    "events_value_ks",
    # the customer-service canvas over the in-repo graph against its
    # literal golden (documented identical at sf0.001 and sf0.01)
    "canvas_customer_service",
]


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return con


@pytest.mark.parametrize("name", NEW_QUERIES)
def test_query_matches_oracle(ray_session, oracle_con, name):
    import ray.data as rd

    from raydoc.pipelines.queries import ORACLES, QUERIES

    import pyarrow as pa

    res = QUERIES[name](SF_DIR)
    if isinstance(res, (rd.Dataset, pa.Table)):
        res = res.to_pandas()
    df = res
    odf = oracle_con.execute(ORACLES[name]).fetchdf()
    cols = sorted(df.columns)
    assert cols == sorted(odf.columns)
    a = df[cols].sort_values(cols).reset_index(drop=True)
    b = odf[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b)
    assert a.astype(str).equals(b.astype(str)), f"{name} value mismatch"

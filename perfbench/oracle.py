"""Last-writer-wins oracle over the generated WAL, in DuckDB.

Shares no code with the engine: it replays the raw segments by ``lsn`` and
compares whole rows (``doc_id``, ``lsn``, ``n_tok``, ``source`` and the token
array) against what the engine returned.
"""

from __future__ import annotations

import os

import duckdb
import pyarrow as pa

# rows the engine must hold at watermark ``wm``: each key's last event with
# lsn <= wm, unless that event is a delete
_EXPECTED = """
    SELECT * FROM ev WHERE lsn <= {wm}
    QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) = 1
"""
_ROW_DIFFERS = """
    e.doc_id IS NULL OR a.doc_id IS NULL OR e.lsn <> a.lsn
    OR e.n_tok IS DISTINCT FROM a.n_tok OR e.source IS DISTINCT FROM a.source
    OR e.tokens IS DISTINCT FROM a.tokens
"""


class Oracle:
    def __init__(self, wal_dir: str, segments: list[str]):
        self.con = duckdb.connect(config={"threads": 1})
        paths = [os.path.join(wal_dir, s) for s in segments]
        self.con.execute(
            "CREATE TABLE ev AS SELECT lsn, op, doc_id, tokens, n_tok, source "
            "FROM read_parquet(?)",
            [paths],
        )

    def close(self) -> None:
        self.con.close()

    def table_mismatches(self, table: pa.Table, wm: int) -> int:
        """Rows of a full-table read that differ from the oracle at ``wm``:
        missing, extra, duplicated or different rows all count."""
        act = table.select(["doc_id", "lsn", "n_tok", "source", "tokens"])
        self.con.register("act", act)
        try:
            (diff,) = self.con.execute(
                f"""
                WITH live AS (SELECT * FROM ({_EXPECTED.format(wm=int(wm))}) WHERE op <> 'd')
                SELECT count(*) FROM live e FULL OUTER JOIN act a ON e.doc_id = a.doc_id
                WHERE {_ROW_DIFFERS}
                """
            ).fetchone()
            (dups,) = self.con.execute(
                "SELECT count(*) - count(DISTINCT doc_id) FROM act"
            ).fetchone()
        finally:
            self.con.unregister("act")
        return int(diff) + int(dups)

    def lookup_mismatches(self, lookups: list[tuple[list[str], int, pa.Table]]) -> int:
        """Lookups whose result differs from the oracle at the watermark that
        was committed when the lookup ran. Each lookup is (keys, wm, rows)."""
        if not lookups:
            return 0
        req = {"lid": [], "doc_id": [], "wm": []}
        acts = []
        for lid, (keys, wm, rows) in enumerate(lookups):
            req["lid"] += [lid] * len(keys)
            req["doc_id"] += list(keys)
            req["wm"] += [int(wm)] * len(keys)
            t = rows.select(["doc_id", "lsn", "n_tok", "source", "tokens"])
            acts.append(t.append_column("lid", pa.array([lid] * t.num_rows, pa.int64())))
        self.con.register("req", pa.table(req))
        self.con.register("act", pa.concat_tables(acts))
        try:
            (bad,) = self.con.execute(
                f"""
                WITH exp AS (
                    SELECT r.lid, e.* FROM req r JOIN ev e
                      ON e.doc_id = r.doc_id AND e.lsn <= r.wm
                    QUALIFY row_number() OVER (PARTITION BY r.lid, r.doc_id ORDER BY e.lsn DESC) = 1
                ), live AS (SELECT * FROM exp WHERE op <> 'd')
                SELECT count(DISTINCT coalesce(e.lid, a.lid)) FROM live e
                FULL OUTER JOIN act a ON e.lid = a.lid AND e.doc_id = a.doc_id
                WHERE {_ROW_DIFFERS}
                """
            ).fetchone()
            (dup,) = self.con.execute(
                "SELECT count(DISTINCT lid) FROM "
                "(SELECT lid FROM act GROUP BY lid, doc_id HAVING count(*) > 1)"
            ).fetchone()
        finally:
            self.con.unregister("req")
            self.con.unregister("act")
        return int(bad) + int(dup)

"""The CLI surface: every subcommand's parser against a stored golden, an
in-process table lifecycle with each summary's keys and exit code pinned,
the README's command lines against the parser, and the rules `main` owns
(the Ray session and the `--output` guard)."""

from __future__ import annotations

import argparse
import json
import os
import re

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from clickhouse_data_pipeline_ray import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "cli_parser_golden.json")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


class _Parsed(Exception):
    pass


def _cli_parser(monkeypatch) -> argparse.ArgumentParser:
    """The parser `main` builds, taken at its `parse_args` call (so the
    test needs nothing from the module but `main`)."""
    seen = []

    def capture(self, args=None, namespace=None):
        seen.append(self)
        raise _Parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Parsed):
        cli.main([])
    monkeypatch.undo()
    return seen[0]


def _subparsers(parser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


def _action_spec(a: argparse.Action) -> dict:
    return {
        "option_strings": list(a.option_strings),
        "dest": a.dest,
        "default": a.default,
        "type": getattr(a.type, "__name__", a.type),
        "choices": list(a.choices) if a.choices is not None else None,
        "required": a.required,
        "nargs": a.nargs,
        "action": type(a).__name__,
        "metavar": a.metavar,
        "help": a.help,
    }


def parser_spec(parser: argparse.ArgumentParser) -> dict:
    (sub_action,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    helps = {c.dest: c.help for c in sub_action._choices_actions}
    return {
        "top": [_action_spec(a) for a in parser._actions
                if not isinstance(a, (argparse._SubParsersAction,
                                      argparse._HelpAction))],
        "subcommand_dest": sub_action.dest,
        "order": list(sub_action.choices),
        "subcommands": {
            name: {
                "help": helps.get(name),
                "args": [_action_spec(a) for a in sp._actions
                         if not isinstance(a, argparse._HelpAction)],
            }
            for name, sp in sorted(_subparsers(parser).items())
        },
    }


def test_parser_matches_golden(monkeypatch):
    with open(GOLDEN) as f:
        golden = json.load(f)
    got = json.loads(json.dumps(parser_spec(_cli_parser(monkeypatch))))
    assert sorted(got["subcommands"]) == sorted(golden["subcommands"])
    for name, spec in golden["subcommands"].items():
        assert got["subcommands"][name] == spec, name
    assert got == golden


def _readme_commands() -> list[tuple[str, list[str]]]:
    """(subcommand, flags) of every `python -m ...cli` line in README,
    continuation lines joined, `#` comments dropped."""
    with open(README) as f:
        lines = f.read().splitlines()
    out, i = [], 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.startswith("python -m clickhouse_data_pipeline_ray.cli "):
            continue
        text = line
        while text.split("#")[0].rstrip().endswith("\\") and i < len(lines):
            text = text.split("#")[0].rstrip()[:-1] + " " + lines[i]
            i += 1
        words = text.split("#")[0].split()[3:]
        cmd = next(w for w in words if not w.startswith("-"))
        flags = [m for w in words
                 for m in re.findall(r"(?<![\w-])(--?[a-z][a-z0-9-]*)", w)]
        out.append((cmd, flags))
    return out


def test_readme_commands_exist(monkeypatch):
    parser = _cli_parser(monkeypatch)
    subs = _subparsers(parser)
    top = {o for a in parser._actions for o in a.option_strings}
    cmds = _readme_commands()
    assert len(cmds) >= 40
    for cmd, flags in cmds:
        assert cmd in subs, cmd
        known = top | {o for a in subs[cmd]._actions for o in a.option_strings}
        assert set(flags) <= known, (cmd, sorted(set(flags) - known))


def _run(capsys, *argv) -> tuple[int, list[dict]]:
    """Run one subcommand in-process: exit code and its JSON lines."""
    rc = cli.main([str(a) for a in argv])
    docs = []
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("{"):
            docs.append(json.loads(line))
    return rc, docs


def _sf_dir(path, n: int) -> str:
    """A testdata-shaped sf dir holding the first n documents."""
    os.makedirs(path, exist_ok=True)
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    pq.write_table(docs.slice(0, n), os.path.join(path, "documents.parquet"))
    return str(path)


def test_table_lifecycle(ray_session, tmp_path, capsys):
    """init → gen → apply → reads → maintenance → MV → truncate-wal, with
    each summary's exit code and keys pinned. Summaries the CLI passes
    through from the library (apply, compact, mutate, kpi, fsck, MV ticks)
    pin the keys the CLI's readers rely on; the CLI's own are pinned
    exactly."""
    t, wal = tmp_path / "t", tmp_path / "wal"

    rc, [doc] = _run(capsys, "init", "--table", t, "--num-partitions", 4)
    assert rc == 0
    assert set(doc) == {"table", "epoch", "mode", "partition_spec",
                        "num_partitions"}
    assert (doc["epoch"], doc["mode"], doc["num_partitions"]) == (0, "upsert", 4)

    rc, [doc] = _run(capsys, "gen", "--wal", wal, "--events", 400,
                     "--events-per-segment", 100, "--tok-max", 16)
    assert rc == 0 and set(doc) == {"wal", "segments", "events"}
    assert doc["segments"] == 4

    rc, [doc] = _run(capsys, "apply", "--table", t, "--wal", wal, "--once",
                     "--epoch-segments", 2)
    assert rc == 0
    assert {"epoch", "segments", "events_applied", "rows_total"} <= set(doc)
    assert (doc["epoch"], doc["segments"]) == (1, 2)

    rc, [doc] = _run(capsys, "status", "--table", t)
    assert rc == 0
    assert set(doc) == {"epoch", "num_partitions", "watermark", "rows",
                        "rows_exact", "partitions_with_pending_deltas",
                        "retained_epochs", "schema", "last"}
    assert doc["epoch"] == 1

    key = pq.read_table(str(wal), columns=["doc_id"]).column(0)[0].as_py()
    rc, [doc] = _run(capsys, "get", "--table", t, "--keys", key)
    assert rc == 0 and set(doc) == {"rows", "columns"}

    rc, [doc] = _run(capsys, "scan", "--table", t, "--col", "n_tok",
                     "--lo", 1, "--hi", 8, "--and", "lsn::100000")
    assert rc == 0
    assert set(doc) == {"rows", "partitions_scanned", "partitions_pruned",
                        "files_total", "files_pruned", "pruned_by_zones"}

    rc, [doc] = _run(capsys, "mutate", "--table", t, "--where", "n_tok:8:9",
                     "--delete")
    assert rc == 0 and doc["epoch"] == 2 and doc["rows_deleted"] > 0
    rc, [doc] = _run(capsys, "mutate", "--table", t, "--where",
                     "n_tok:100000:", "--set", "source=x")
    assert rc == 0 and doc == {"mutated": False, "reason": "no rows matched"}

    rc, docs = _run(capsys, "apply", "--table", t, "--wal", wal)
    assert rc == 0 and [d["epoch"] for d in docs] == [3]
    rc, [doc] = _run(capsys, "compact", "--table", t)
    assert rc == 0 and doc["epoch"] == 4
    rc, [doc] = _run(capsys, "compact", "--table", t)
    assert rc == 0 and doc == {"compacted": 0, "clean": True}

    rc, [doc] = _run(capsys, "diff", "--table", t, "--from-epoch", 1,
                     "--limit", 3)
    assert rc == 0
    assert set(doc) == {"from_epoch", "to_epoch", "changed_partitions",
                        "columns"}
    assert "op" in doc["columns"]
    rc, [doc] = _run(capsys, "diff", "--table", t, "--from-epoch", 1,
                     "--output", tmp_path / "changes")
    assert rc == 0
    assert set(doc) == {"from_epoch", "to_epoch", "changed_partitions",
                        "output"}

    rc, [doc] = _run(capsys, "fsck", "--table", t)
    assert rc == 0 and doc["ok"] is True and doc["errors"] == 0

    rc, [doc] = _run(capsys, "kpi", "--table", t)
    assert rc == 0 and {"totals", "per_source"} <= set(doc)

    rc, [doc] = _run(capsys, "mv-register", "--table", t, "--name", "by_src",
                     "--group-keys", "source", "--sums", "n_tok:1:sum_tok",
                     "--maxs", "n_tok:max_tok")
    assert rc == 0
    assert set(doc) == {"mv", "group_keys", "sums", "mins", "maxs",
                        "distincts", "watermark_lsn"}
    rc, [doc] = _run(capsys, "mv-refresh", "--table", t, "--wal", wal)
    assert rc == 0 and (doc["mv"], doc["epoch"]) == ("by_src", 4)
    rc, [doc] = _run(capsys, "mv-read", "--table", t, "--name", "by_src")
    assert rc == 0 and set(doc) == {"mv", "groups", "columns"}
    assert {"source", "sum_tok", "max_tok"} <= set(doc["columns"])
    rc, [doc] = _run(capsys, "status", "--table", t)
    assert rc == 0 and set(doc["mvs"]["by_src"]) == {"watermark_epoch",
                                                    "lag_epochs"}

    rc, [doc] = _run(capsys, "truncate-wal", "--table", t, "--wal", wal)
    assert rc == 0 and doc == {"removed_segments": 4}


def test_cli_keeps_a_session_it_did_not_start(ray_session, tmp_path, capsys):
    """In-process `main` inside a live session must leave it running: the
    CLI shuts down only a session it started itself."""
    import ray

    t, wal = tmp_path / "t", tmp_path / "wal"
    assert _run(capsys, "init", "--table", t, "--num-partitions", 2)[0] == 0
    assert _run(capsys, "gen", "--wal", wal, "--events", 100,
                "--events-per-segment", 50, "--tok-max", 8)[0] == 0
    assert _run(capsys, "apply", "--table", t, "--wal", wal)[0] == 0
    assert ray.is_initialized()
    assert _run(capsys, "compact", "--table", t)[0] == 0
    assert ray.is_initialized()
    assert _run(capsys, "kpi", "--table", t)[0] == 0
    assert ray.is_initialized()


def test_reused_output_dir_is_refused(ray_session, tmp_path, capsys):
    """A second run into the same `--output` must not re-read the first
    run's parts into its summary (it would report doubled counts)."""
    sf = _sf_dir(tmp_path / "sf", 40)
    out = tmp_path / "gopher"
    rc, [doc] = _run(capsys, "gopher-filter", "--sf-dir", sf, "--output", out)
    assert rc == 0 and doc["rows"] == 40
    rc = cli.main(["gopher-filter", "--sf-dir", sf, "--output", str(out)])
    assert rc == 2
    assert "already holds parquet files" in capsys.readouterr().err


PART_WRITERS = {
    "query": ["corpus_clean"],
    "mix-sample": ["--total-tokens", "100"],
    "decontaminate": ["--snippets", "s.parquet"],
    "gopher-filter": [],
    "bpe-encode": ["--model", "m"],
    "lm-score": ["--model", "m"],
    "classify": ["--model", "m"],
    "semdedup": [],
    "span-dedup": [],
    "dedup-incremental": ["--input", "in", "--index", "ix"],
    "dedup-neardup": ["--input", "in", "--index", "ix"],
    "dedup-embdup": ["--input", "in", "--index", "ix"],
    "diff": ["--table", "t", "--from-epoch", "0"],
}


@pytest.mark.parametrize("cmd", sorted(PART_WRITERS))
def test_part_writers_refuse_a_dir_holding_parts(cmd, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    pq.write_table(pa.table({"x": [1]}), str(out / "part-0.parquet"))
    rc = cli.main([cmd, *PART_WRITERS[cmd], "--output", str(out)])
    assert rc == 2
    assert "already holds parquet files" in capsys.readouterr().err
    assert os.listdir(out) == ["part-0.parquet"]


def test_span_dedup_empty_corpus(ray_session, tmp_path, capsys):
    sf = _sf_dir(tmp_path / "sf", 0)
    rc, [doc] = _run(capsys, "span-dedup", "--sf-dir", sf, "--span", 4,
                     "--output", tmp_path / "clean")
    assert rc == 0
    assert (doc["docs"], doc["docs_touched"], doc["words_removed"]) == (0, 0, 0)
    assert pq.read_table(str(tmp_path / "clean")).num_rows == 0


@pytest.mark.parametrize("index_cmd,dedup_cmd,data", [
    ("index-fingerprints", "dedup-incremental", "documents"),
    ("index-embeddings", "dedup-embdup", "embeddings"),
])
def test_update_part_with_zero_survivors(
    index_cmd, dedup_cmd, data, ray_session, tmp_path, capsys
):
    """Deduplicating the input a ledger was built from leaves zero
    survivors; ``--update-part`` then commits an empty part and the command
    prints its summary and exits 0."""
    src = f"{cli.SF_DIR[1]['default']}/{data}.parquet"
    idx = tmp_path / "ledger"
    rc, _ = _run(capsys, index_cmd, "--input", src, "--output", idx)
    assert rc == 0
    rc, [doc] = _run(capsys, dedup_cmd, "--input", src, "--index", idx,
                     "--update-part", "p2")
    assert rc == 0 and doc["survivors"] == 0 and doc["update_part"] == "p2"
    with open(idx / "meta.json") as f:
        assert json.load(f)["parts"] == ["base", "p2"]

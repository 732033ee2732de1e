"""Entry-point behavior: parsing, exit codes, stream discipline."""

import csv
import io
import json
import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paveharvest
from helpers import (
    asg_raw_text,
    laser_raw_text,
    pulse_values,
    raw_text,
    reference_join,
    reference_laser_csv,
    reference_laser_rows,
    reference_query_csv,
    stored_count,
    tc_raw_text,
)
from paveharvest import cli as cli_mod, etl, tsstore
from paveharvest.cli import build_parser, main
from paveharvest.timeutil import format_rfc3339, now_us, parse_duration
from paveharvest.tsstore import Sample, Store


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def loaded_by_cli_import(*modules: str) -> list[str]:
    """Those of ``modules`` that a fresh interpreter has loaded once it has
    imported ``paveharvest.cli``."""
    src = str(Path(paveharvest.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = f"import sys, paveharvest.cli; print(*[m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_cli_import_leaves_scipy_unloaded():
    """Commands that do no signal processing do not pay for importing scipy."""
    assert loaded_by_cli_import("scipy") == []


def test_cli_import_leaves_the_http_modules_unloaded():
    """Only ``connector metrics`` fetches and only a connector with a metrics
    port serves, so no other command pays for importing their modules."""
    assert loaded_by_cli_import("urllib.request", "http.server") == []


def test_cli_import_leaves_fcntl_unloaded():
    """Only a store's first insert locks its root, so only a writer pays for
    importing ``fcntl``."""
    assert loaded_by_cli_import("fcntl") == []


# --- argument parsing -----------------------------------------------------


def test_store_query_args_parse():
    args = build_parser().parse_args(
        [
            "store", "query",
            "--from", "2020-01-01T00:00:00Z",
            "--to", "2020-01-02T00:00:00Z",
            "--sensor", "65/1/epc3",
        ]
    )
    assert args.subcommand == "query"
    assert args.sensor == "65/1/epc3"


SUBCOMMANDS = [("broker", "serve"), ("daqsim", "run"), ("connector", "run"),
               ("connector", "metrics"), ("store", "query"), ("store", "check"),
               ("etl", "process"), ("etl", "join"), ("dsp", "inspect"), ("e2e", "run")]


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["nope"], ["-v", "store", "query", "-h"],
     *([c, "-h"] for c in cli_mod.COMMANDS), *([c, "nope"] for c in cli_mod.COMMANDS),
     *([c, s, "-h"] for c, s in SUBCOMMANDS), *([c, s, "--nope"] for c, s in SUBCOMMANDS)],
    ids=" ".join,
)
def test_command_branch_reads_as_the_whole_parser(argv, capsys):
    """``main`` builds only its command's branch of the parser, and its
    help, usage errors and exit codes are those of the whole tree."""
    assert {c for c, _ in SUBCOMMANDS} == set(cli_mod.COMMANDS)
    with pytest.raises(SystemExit) as whole:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as branch:
        main(argv)
    assert branch.value.code == whole.value.code
    assert capsys.readouterr() == expected


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["store", "query", "--nope"])
    assert exc.value.code == 2


def test_from_after_to_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "store", "query", "--store", str(tmp_path / "db"),
                "--sensor", "x",
                "--from", "2021-01-01T00:00:00Z",
                "--to", "2020-01-01T00:00:00Z",
            ]
        )
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "bucket", ["0s", "5x", "-5m", "106751992d", "9223372036854775808us"]
)
def test_bad_bucket_is_usage_error(tmp_path, capsys, bucket):
    """A bucket that is not a positive duration below 2**63 us is a bad flag
    value: exit 2, before the store is opened."""
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "store", "query", "--store", str(tmp_path / "db"),
                "--sensor", "x", f"--bucket={bucket}",
                "--from", "2020-01-01T00:00:00Z",
                "--to", "2020-01-02T00:00:00Z",
            ]
        )
    assert exc.value.code == 2
    assert "--bucket" in capsys.readouterr().err
    assert not (tmp_path / "db").exists()


@pytest.mark.parametrize("subject", ["a b", "site..>"])
def test_connector_run_with_a_bad_subject_is_usage_error(tmp_path, capsys, monkeypatch, subject):
    """A subject the bus would refuse is a bad flag value: exit 2 naming
    ``--subject``, before the connector starts, rather than a connector
    that never subscribes."""
    monkeypatch.setattr(cli_mod, "_wait_for_interrupt", lambda: None)
    with pytest.raises(SystemExit) as exc:
        main(["connector", "run", "--store", str(tmp_path / "db"),
              "--broker", "127.0.0.1:1", "--subject", subject])
    assert exc.value.code == 2
    assert "--subject" in capsys.readouterr().err


# --- store query ------------------------------------------------------------


def make_store(root):
    base = 1_600_000_000_000_000
    with Store(root) as store:
        store.insert(
            [Sample("65/1/epc3", base + i * 1_000_000, float(i)) for i in range(10)]
        )
    return base


def test_store_query_csv_output(tmp_path, capsys):
    root = tmp_path / "db"
    base = make_store(root)
    code, out, err = run_cli(
        [
            "store", "query", "--store", str(root), "--sensor", "65/1/epc3",
            "--from", format_rfc3339(base),
            "--to", format_rfc3339(base + 10_000_000),
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["ts_rfc3339", "value"]
    assert len(rows) == 11
    assert rows[1][1] == "0.0"
    # data on stdout only; any logging stays on stderr
    assert "ts_rfc3339" not in err


def test_store_query_downsample(tmp_path, capsys):
    root = tmp_path / "db"
    base = make_store(root)
    code, out, _ = run_cli(
        [
            "store", "query", "--store", str(root), "--sensor", "65/1/epc3",
            "--from", format_rfc3339(base),
            "--to", format_rfc3339(base + 10_000_000),
            "--bucket", "5s", "--agg", "count",
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert sum(int(r[1]) for r in rows) == 10


QUERY_BASE = 1_717_200_000_000_000  # 2024-06-01T00:00:00Z


@pytest.fixture(scope="module")
def query_store(tmp_path_factory):
    """One sensor with 70,000 samples over two hours: about a tenth of the
    stamps whole seconds, the rest with sub-second digits, and values from
    1e-8 to 1e11, some of them whole."""
    rng = np.random.default_rng(21)
    n = 70_000
    ts = QUERY_BASE + np.sort(rng.choice(72_000, n, replace=False)) * 100_000
    ts += (ts % 1_000_000 != 0) * rng.integers(0, 100_000, n)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 12, n)
    v[::7] = np.round(v[::7])
    root = tmp_path_factory.mktemp("query") / "db"
    with Store(root) as store:
        for i in range(0, n, 10_000):
            store.insert([Sample("s", t, x) for t, x in
                          zip(ts[i:i + 10_000].tolist(), v[i:i + 10_000].tolist())])
    return root


@pytest.mark.parametrize(
    "hours, extra",
    [
        ((1, 1.25), []),
        ((0, 2), ["--bucket", "5m", "--agg", "avg"]),
        ((0, 2), ["--bucket", "5m", "--agg", "min"]),
        ((0, 2), ["--bucket", "7s", "--agg", "max"]),
        ((0, 2), ["--bucket", "1m", "--agg", "count"]),
        ((-2, -1), []),
        ((0, 3), []),
        ((0, 2), ["--bucket", "106751991d", "--agg", "count"]),
    ],
    ids=["raw", "avg", "min", "max", "count", "empty", "70k-rows", "longest-bucket"],
)
def test_store_query_output_matches_the_row_by_row_reference(query_store, capsys, hours, extra):
    """Every ``store query`` output is the per-row reference rendering of
    the store's rows, byte for byte."""
    t0, t1 = (QUERY_BASE + int(h * 3_600_000_000) for h in hours)
    code = main(["store", "query", "--store", str(query_store), "--sensor", "s",
                 "--from", format_rfc3339(t0), "--to", format_rfc3339(t1), *extra])
    assert code == 0
    with Store(query_store) as store:
        if extra:
            rows = store.downsample("s", t0, t1, parse_duration(extra[1]), extra[3])
        else:
            rows = [(s.ts, s.v) for s in store.query_range("s", t0, t1)]
    assert capsys.readouterr().out == reference_query_csv(rows)
    if hours == (0, 3):
        assert len(rows) == 70_000


def test_store_check_clean_and_corrupt(tmp_path, capsys):
    root = tmp_path / "db"
    make_store(root)
    code, _, _ = run_cli(["store", "check", "--store", str(root)], capsys)
    assert code == 0
    seg = next(root.glob("*/*.seg"))
    raw = bytearray(seg.read_bytes())
    raw[:4] = b"XXXX"
    seg.write_bytes(bytes(raw))
    code, _, err = run_cli(["store", "check", "--store", str(root)], capsys)
    assert code == 4


@pytest.mark.parametrize("size", [0, 10])
def test_store_check_passes_a_segment_cut_inside_its_header(tmp_path, capsys, size):
    """A crash between creating a segment and its first write leaves a
    prefix of the header; the store reads it as an empty chunk, and so does
    ``store check``."""
    root = tmp_path / "db"
    seg = root / "z" / "0.seg"
    seg.parent.mkdir(parents=True)
    seg.write_bytes(tsstore.HEADER.pack(b"TSEG", 1, tsstore.key_hash("z"), 0, bytes(8))[:size])
    code, _, err = run_cli(["store", "check", "--store", str(root)], capsys)
    assert code == 0
    assert str(seg) not in err


def test_store_check_skips_stray_segment_file(tmp_path, capsys, caplog):
    """`store check` lists segments as the store does: a stray `.seg` name is
    skipped with the store's warning, and the real segments are checked."""
    root = tmp_path / "db"
    make_store(root)
    seg = next(root.glob("*/*.seg"))
    stray = seg.with_name("notes.seg")
    stray.write_bytes(seg.read_bytes())
    with caplog.at_level("WARNING", logger="paveharvest.tsstore"):
        code, _, _ = run_cli(["store", "check", "--store", str(root)], capsys)
    assert code == 0
    assert f"ignoring stray file {stray}" in caplog.text
    raw = bytearray(seg.read_bytes())
    raw[:4] = b"XXXX"
    seg.write_bytes(bytes(raw))
    code, _, err = run_cli(["store", "check", "--store", str(root)], capsys)
    assert code == 4
    assert f"{seg}: bad magic/version" in err
    assert "notes.seg" not in err


def test_store_commands_on_a_missing_store_create_nothing(tmp_path, capsys):
    """A mistyped ``--store`` reads as an empty store and is not made;
    ``store check`` still fails on it."""
    missing = tmp_path / "nx" / "db2"
    span = ["--from", "2020-01-01T00:00:00Z", "--to", "2020-01-02T00:00:00Z"]
    for extra in ([], ["--bucket", "1h", "--agg", "count"]):
        code, out, _ = run_cli(
            ["store", "query", "--store", str(missing), "--sensor", "a", *span, *extra],
            capsys,
        )
        assert code == 0
        assert out.strip() == "ts_rfc3339,value"
    code, _, _ = run_cli(["store", "check", "--store", str(missing)], capsys)
    assert code == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [
        ["connector", "run"],
        ["store", "query", "--sensor", "a",
         "--from", "2020-01-01T00:00:00Z", "--to", "2020-01-02T00:00:00Z"],
        ["store", "check"],
        ["e2e", "run", "--scenario", "scen.json"],
    ],
    ids=["connector-run", "store-query", "store-check", "e2e-run"],
)
def test_no_store_given_exits_3_and_makes_nothing(tmp_path, capsys, caplog, monkeypatch, command):
    def connect(*args, **kwargs):
        pytest.fail("the store must be resolved before any connection is made")

    monkeypatch.delenv("PAVEH_STORE", raising=False)
    monkeypatch.setattr(cli_mod, "BusClient", connect)
    monkeypatch.setattr(cli_mod, "Broker", connect)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(command, capsys)
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == ["--store is required (or PAVEH_STORE)"]
    assert list(tmp_path.iterdir()) == []


STORE_QUERY = ["store", "query", "--sensor", "a",
               "--from", "2020-01-01T00:00:00Z", "--to", "2020-01-02T00:00:00Z"]
EMPTY_STORE = "--store is required (or PAVEH_STORE)"  # an empty root is no root


@pytest.mark.parametrize(
    "config, env, argv, message",
    [
        ("null", None, STORE_QUERY, "config cfg.json must hold a JSON object"),
        ('["store"]', None, STORE_QUERY, "config cfg.json must hold a JSON object"),
        ('{"store": 5}', None, STORE_QUERY, "config entry 'store' must be a string, got 5"),
        ('{"broker": ["x"]}', None, ["daqsim", "run", "--scenario", "scen.json"],
         "config entry 'broker' must be a string, got ['x']"),
        ("{}", "", STORE_QUERY, EMPTY_STORE),
        ("{}", None, [*STORE_QUERY, "--store", ""], EMPTY_STORE),
        ("{}", None, ["store", "check", "--store", ""], EMPTY_STORE),
        ("{}", None, ["connector", "run", "--store", ""], EMPTY_STORE),
    ],
    ids=["null", "list", "store-int", "broker-list", "env-empty", "flag-empty",
         "check-flag-empty", "connector-flag-empty"],
)
def test_a_bad_config_or_an_empty_store_exits_3_naming_it_and_makes_nothing(
    tmp_path, caplog, monkeypatch, config, env, argv, message
):
    """A config file that is not an object, a config entry a command reads
    that is not a string, and an empty store root are refused before any
    store, socket or thread is made."""

    def connect(*args, **kwargs):
        pytest.fail("the config must be checked before any connection is made")

    for name in ("BusClient", "Broker", "Connector"):
        monkeypatch.setattr(cli_mod, name, connect)
    monkeypatch.delenv("PAVEH_STORE", raising=False)
    if env is not None:
        monkeypatch.setenv("PAVEH_STORE", env)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(config)
    assert main(["--config", "cfg.json", *argv]) == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [message]
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_store_query_env_var_config(tmp_path, capsys, monkeypatch):
    root = tmp_path / "db"
    base = make_store(root)
    monkeypatch.setenv("PAVEH_STORE", str(root))
    code, out, _ = run_cli(
        [
            "store", "query", "--sensor", "65/1/epc3",
            "--from", format_rfc3339(base), "--to", format_rfc3339(base + 1),
        ],
        capsys,
    )
    assert code == 0


def test_config_file_lowest_precedence(tmp_path, capsys, monkeypatch):
    root = tmp_path / "db"
    base = make_store(root)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"store": str(root)}))
    monkeypatch.delenv("PAVEH_STORE", raising=False)
    code, out, _ = run_cli(
        [
            "--config", str(cfg),
            "store", "query", "--sensor", "65/1/epc3",
            "--from", format_rfc3339(base), "--to", format_rfc3339(base + 1),
        ],
        capsys,
    )
    assert code == 0
    # env var beats the config file: point env at a missing store, expect empty
    monkeypatch.setenv("PAVEH_STORE", str(tmp_path / "other"))
    code, out, _ = run_cli(
        [
            "--config", str(cfg),
            "store", "query", "--sensor", "65/1/epc3",
            "--from", format_rfc3339(base), "--to", format_rfc3339(base + 10**7),
        ],
        capsys,
    )
    assert code == 0
    assert out.strip() == "ts_rfc3339,value"  # the env-selected store is empty


# --- etl subcommands -----------------------------------------------------------


def test_etl_process_and_join(tmp_path, capsys):
    in_dir = tmp_path / "raw"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    (in_dir / "Traffic D1 F20 07-07-22.txt").write_text(asg_raw_text(n_pass=42))
    code, _, _ = run_cli(
        ["etl", "process", "--in", str(in_dir), "--out", str(out_dir)], capsys
    )
    assert code == 0
    data = (out_dir / "data.csv").read_text()
    info = (out_dir / "file_info.csv").read_text()
    assert data.splitlines()[0].startswith("filename_id,")
    joined_path = tmp_path / "joined.csv"
    code, _, _ = run_cli(
        [
            "etl", "join",
            "--data", str(out_dir / "data.csv"),
            "--fileinfo", str(out_dir / "file_info.csv"),
            "--out", str(joined_path),
        ],
        capsys,
    )
    assert code == 0
    assert joined_path.read_text().splitlines()[0].startswith("filename,")


def test_etl_process_laser(tmp_path, capsys):
    in_dir = tmp_path / "raw"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    (in_dir / "scan.txt").write_text(laser_raw_text(n_samples=1100))
    code, _, _ = run_cli(
        ["etl", "process", "--in", str(in_dir), "--kind", "laser", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert (out_dir / "laser.csv").exists()
    assert not (out_dir / "data.csv").exists()


def test_etl_process_laser_table_matches_the_per_row_reference(tmp_path, capsys):
    """Laser files' tables are concatenated in path order, each row under its
    file's FILE_INFO id, as the per-row reference writes them."""
    in_dir = tmp_path / "raw"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    pretraffic = laser_raw_text(n_samples=1100, start_time="23:59:59.99").replace(
        "# kind: LASER", "# kind: LASER_PRETRAFFIC"
    )
    (in_dir / "a scan.txt").write_text(laser_raw_text(n_samples=1200))
    (in_dir / "b Traffic D1 F20 07-07-22.txt").write_text(asg_raw_text(n_pass=42))
    (in_dir / "c pretraffic.txt").write_text(pretraffic)
    code, _, _ = run_cli(
        ["etl", "process", "--in", str(in_dir), "--out", str(out_dir)], capsys
    )
    assert code == 0
    paths = sorted(in_dir.iterdir())
    info = etl.build_file_info([etl.FileMeta(filename=p.name) for p in paths])
    info_rows = list(csv.reader(io.StringIO((out_dir / "file_info.csv").read_text())))
    assert [row[:2] for row in info_rows[1:]] == [
        [str(i), meta.filename] for i, meta in enumerate(info, 1)]
    want = [
        row
        for p in (paths[0], paths[2])
        for row in reference_laser_rows(p.name, etl.parse_raw_log(p))
    ]
    # the pretraffic log starts just before midnight and runs past it
    assert want[1200].sampled_time == "23:59:59.99"
    assert want[-1].sampled_time.startswith("00:00:")
    assert (out_dir / "laser.csv").read_bytes() == reference_laser_csv(want, info).encode()


def test_etl_join_dangling_reference_exit_code(tmp_path, capsys):
    data = tmp_path / "data.csv"
    info = tmp_path / "file_info.csv"
    data.write_text(
        "filename_id,captured_instance,gage_id,placement,cal_coeff,rated_output,"
        "extrema,seconds_elapsed,processed_datapoint,unit\r\n"
        "7,first20,7,36,1,1,maxima,1,1,microstrain\r\n"
    )
    info.write_text(
        "id,filename,project_name,test_section,sensor_type,location,gage_id,"
        "survey_date,description\r\n1,a.txt,,,,,,,\r\n"
    )
    code, _, _ = run_cli(
        ["etl", "join", "--data", str(data), "--fileinfo", str(info)], capsys
    )
    assert code == 4


_DATA_ROW = "1,first20,7,36,1,1,maxima,1,1,microstrain\r\n"
_INFO_ROW = "1,a.txt,,,,,,,\r\n"
_HUGE_FIELD = '"' + "x" * 200_000 + '"'


@pytest.mark.parametrize(
    "data, info, message",
    [
        (etl.DATA_HEADER + "\r\n" + _DATA_ROW + "\r\n" + _DATA_ROW,
         etl.FILE_INFO_HEADER + "\r\n" + _INFO_ROW,
         "line 3: blank line in data table"),
        (etl.DATA_HEADER + "\r\n" + _DATA_ROW.replace("1,1,maxima", '"1",1,maxima') + "\r\n",
         etl.FILE_INFO_HEADER + "\r\n" + _INFO_ROW,
         "line 3: blank line in data table"),
        (etl.DATA_HEADER + "\r\n" + _DATA_ROW,
         etl.FILE_INFO_HEADER + "\r\n" + _INFO_ROW + "\r\n",
         "line 3: file info row has 0 of 9 fields"),
        (etl.DATA_HEADER + "\r\n" + _DATA_ROW,
         etl.FILE_INFO_HEADER + "\r\n2,b.txt\r\n" + _INFO_ROW,
         "line 2: file info row has 2 of 9 fields"),
        # a quoted field longer than the csv module's field_size_limit
        (etl.DATA_HEADER + "\r\n" + _DATA_ROW + _DATA_ROW.replace("microstrain", _HUGE_FIELD),
         etl.FILE_INFO_HEADER + "\r\n" + _INFO_ROW,
         "line 3: field larger than field limit (131072)"),
        (etl.DATA_HEADER + "\r\n" + _DATA_ROW,
         etl.FILE_INFO_HEADER + "\r\n" + _INFO_ROW.replace(",,\r", "," + _HUGE_FIELD + "\r"),
         "line 2: field larger than field limit (131072)"),
    ],
    ids=["blank-data-line", "blank-line-in-quoted-data", "blank-file-info-row", "short-file-info-row",
         "oversized-quoted-data-field", "oversized-quoted-file-info-field"],
)
def test_etl_join_malformed_table_exits_3(tmp_path, capsys, caplog, data, info, message):
    (tmp_path / "data.csv").write_text(data)
    (tmp_path / "file_info.csv").write_text(info)
    code, out, _ = run_cli(
        ["etl", "join", "--data", str(tmp_path / "data.csv"),
         "--fileinfo", str(tmp_path / "file_info.csv")],
        capsys,
    )
    assert code == 3
    assert out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [message]


def write_every_kind_archive(root, quoted):
    """Raw logs of every sensor kind. With ``quoted``, a unit holds a comma
    and a gage a quote, so the data table holds quoted fields; either way a
    filename and a location hold a comma, so FILE_INFO does."""
    root.mkdir()
    unit = "deg F, surface" if quoted else "degF"
    gage = '7"' if quoted else "7"
    (root / "Traffic D1 F20 07-07-22.txt").write_text(asg_raw_text(n_pass=42))
    (root / "101 I69_D1_TC_3_07-Jul-2022.txt").write_text(
        tc_raw_text().replace("# unit: degF", f"# unit: {unit}\n# location: 12.5, lane 2")
    )
    t = np.arange(0.0, 48.0, 1.0 / 50)
    (root / "102 I69_D1_PC_4_07-Jul-2022.txt").write_text(
        raw_text({"kind": "PC"}, t, [60.0 + 5.0 * np.sin(2 * np.pi * t / 8.0)])
    )
    t, y = pulse_values(3)
    for fid, kind in enumerate(("CSG", "STATIONARY_ET", "STATIONARY_MT", "FWD"), start=103):
        name = f"{fid} I69_D1_{kind.replace('_', '')}_5_07-Jul-2022.txt"
        (root / name).write_text(raw_text({"kind": kind, "gage": gage}, t, [y]))
    (root / "107 scan, lane 1.txt").write_text(laser_raw_text(n_samples=1100))
    (root / "108 pretraffic.txt").write_text(
        laser_raw_text(n_samples=1200).replace("# kind: LASER", "# kind: LASER_PRETRAFFIC")
    )


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_etl_join_matches_the_row_by_row_reference_on_processed_tables(tmp_path, capsys, quoted):
    """etl process, then etl join of both tables, all through the CLI: each
    joined table is the row-by-row join of the tables as the CLI read them."""
    out_dir = tmp_path / "out"
    write_every_kind_archive(tmp_path / "raw", quoted)
    code, _, _ = run_cli(
        ["etl", "process", "--in", str(tmp_path / "raw"), "--out", str(out_dir)], capsys
    )
    assert code == 0
    info = (out_dir / "file_info.csv").read_text()
    assert '"' in info
    for table in ("data", "laser"):
        data = (out_dir / f"{table}.csv").read_text()
        assert ('"' in data) == (quoted and table == "data")
        joined = out_dir / f"joined_{table}.csv"
        code, _, _ = run_cli(
            ["etl", "join", "--data", str(out_dir / f"{table}.csv"),
             "--fileinfo", str(out_dir / "file_info.csv"), "--out", str(joined)],
            capsys,
        )
        assert code == 0
        assert joined.read_bytes() == reference_join(data, info).encode()


@pytest.mark.parametrize(
    "text, message",
    [
        ("# kind: TC\n0,1\n1,x\n2,3\n", "line 3: bad number in row: '1,x'"),
        (laser_raw_text(n_samples=1100, start_time="10:57"), "bad time of day: '10:57'"),
        (laser_raw_text(n_samples=500), "series of 500 samples needs >= 1001"),
        (laser_raw_text(n_samples=1100, start_time="10:75:00"), "bad time of day: '10:75:00'"),
        (laser_raw_text(n_samples=1100, start_time="24:00:00"), "bad time of day: '24:00:00'"),
        (laser_raw_text(n_samples=1100, start_time="10:00:60"), "bad time of day: '10:00:60'"),
    ],
    ids=["bad-row", "bad-start-time", "short-laser-log", "minute-75", "hour-24", "second-60"],
)
def test_etl_process_error_names_the_file(tmp_path, capsys, caplog, text, message):
    in_dir = tmp_path / "raw"
    in_dir.mkdir()
    (in_dir / "a good.txt").write_text(asg_raw_text(n_pass=42))
    (in_dir / "b bad.txt").write_text(text)
    code, _, _ = run_cli(
        ["etl", "process", "--in", str(in_dir), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"b bad.txt: {message}"]


def test_etl_process_missing_dir_is_runtime_error(tmp_path, capsys):
    code, _, _ = run_cli(
        ["etl", "process", "--in", str(tmp_path / "nope"), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 3


# --- dsp inspect ------------------------------------------------------------


def test_dsp_inspect_smooths_csv(tmp_path, capsys):
    t = np.arange(200) * 0.1
    y = t * 2.0
    src = tmp_path / "in.csv"
    src.write_text("t,y\n" + "\n".join(f"{a},{b}" for a, b in zip(t, y)))
    code, out, _ = run_cli(
        ["dsp", "inspect", "--in", str(src), "--window", "11", "--order", "2"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "y", "y_smoothed"]
    sample = rows[100]
    assert float(sample[2]) == pytest.approx(float(sample[1]), abs=1e-9)


@pytest.mark.parametrize(
    "flags",
    [["--window", "4"], ["--window", "11", "--order", "0"], ["--window", "5", "--order", "5"]],
    ids=["even-window", "order-0", "order-not-below-window"],
)
def test_dsp_inspect_bad_window_or_order_is_a_usage_error(tmp_path, capsys, flags):
    """Checked before the input is read: exit 2 even with no such file."""
    with pytest.raises(SystemExit) as exc:
        main(["dsp", "inspect", "--in", str(tmp_path / "missing.csv"), *flags])
    assert exc.value.code == 2
    assert "--window/--order" in capsys.readouterr().err


def test_dsp_inspect_row_of_one_field_exits_3_naming_the_line(tmp_path, capsys, caplog):
    src = tmp_path / "in.csv"
    src.write_text("t,y\n0,1\n1\n2,3\n")
    code, out, _ = run_cli(["dsp", "inspect", "--in", str(src), "--window", "3"], capsys)
    assert code == 3
    assert out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and "line 3" in errors[0] and "'1'" in errors[0]


# --- e2e ------------------------------------------------------------


def write_scenario(path, sensors=3, duration=5):
    path.write_text(
        json.dumps(
            {
                "site": "65",
                "daq": "1",
                "seed": 7,
                "duration_s": duration,
                "sensors": [
                    {"id": f"epc{i}", "kind": "EPC", "rate_hz": 1,
                     "baseline": 100.0, "pulse_amplitude": 40.0}
                    for i in range(sensors)
                ],
            }
        )
    )


@pytest.mark.parametrize(
    "command", [["daqsim", "run"], ["e2e", "run", "--store", "db"]], ids=["daqsim", "e2e"]
)
@pytest.mark.parametrize(
    "sensor, message",
    [
        ({"kind": "EPC"}, "missing field 'id'"),
        ({"id": "e1", "kind": "EPC", "colour": "red"}, "unexpected keyword argument 'colour'"),
        ({"id": "e1", "kind": "EPC", "rate_hz": "fast"}, "field 'rate_hz' must be int"),
    ],
    ids=["no-id", "unknown-field", "mistyped-field"],
)
def test_malformed_scenario_exits_3_naming_the_field(
    tmp_path, capsys, caplog, monkeypatch, command, sensor, message
):
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps({"site": "65", "daq": "1", "sensors": [sensor]}))

    def connect(*args, **kwargs):
        pytest.fail("the scenario must be parsed before any connection is made")

    monkeypatch.setattr(cli_mod, "BusClient", connect)
    monkeypatch.setattr(cli_mod, "Broker", connect)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(command + ["--scenario", str(scenario)], capsys)
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize(
    "command, flags, fields, message",
    [
        (["daqsim", "run"], ["--site", "a.b"], {}, "field 'site'"),
        (["daqsim", "run"], ["--daq", "*"], {}, "field 'daq'"),
        (["daqsim", "run"], ["--duration", "-3"], {}, "field 'duration_s'"),
        (["daqsim", "run"], [], {"duration_s": -3}, "field 'duration_s'"),
        (["e2e", "run", "--store", "db"], ["--duration", "-3"], {}, "field 'duration_s'"),
        (["e2e", "run", "--store", "db"], [], {"duration_s": -3}, "field 'duration_s'"),
        (["daqsim", "run"], [], {"seed": -1}, "field 'seed'"),
        (["e2e", "run", "--store", "db"], [], {"seed": -1}, "field 'seed'"),
        (["daqsim", "run"], [], {"start_time": "1960-06-01T00:00:00Z"}, "field 'start_time_us'"),
        (["e2e", "run", "--store", "db"], [], {"start_time": "1960-06-01T00:00:00Z"},
         "field 'start_time_us'"),
        (["e2e", "run", "--store", "db"], [], {"start_time": 2**63 - 30 * 10**6},
         "field 'start_time_us'"),
        (["e2e", "run", "--store", "db"], ["--duration", "40"],
         {"start_time": 2**63 - 40 * 10**6, "duration_s": 39}, "field 'start_time_us'"),
    ],
    ids=[
        "daqsim-site", "daqsim-daq", "daqsim-duration", "daqsim-file-duration",
        "e2e-duration", "e2e-file-duration", "daqsim-file-seed", "e2e-file-seed",
        "daqsim-file-start-before-epoch", "e2e-file-start-before-epoch",
        "e2e-file-end-beyond-int64", "e2e-duration-end-beyond-int64",
    ],
)
def test_bad_scenario_override_exits_3_naming_the_field(
    tmp_path, capsys, caplog, monkeypatch, command, flags, fields, message
):
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps({"site": "65", "daq": "1", "sensors": [], **fields}))

    def connect(*args, **kwargs):
        pytest.fail("the scenario must be checked before any connection is made")

    monkeypatch.setattr(cli_mod, "BusClient", connect)
    monkeypatch.setattr(cli_mod, "Broker", connect)
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(command + ["--scenario", str(scenario)] + flags, capsys)
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("start_time", [1, "1970-01-01T00:00:00.000001Z"])
def test_a_start_time_of_one_microsecond_is_kept(tmp_path, start_time):
    scenario = tmp_path / "scen.json"
    scenario.write_text(
        json.dumps({"site": "65", "daq": "1", "sensors": [], "start_time": start_time})
    )
    assert cli_mod._load_scenario(str(scenario)).start_time_us == 1
    assert cli_mod._load_scenario(str(scenario), duration_s=3).start_time_us == 1


def test_a_scenario_without_a_start_time_starts_now(tmp_path):
    scenario = tmp_path / "scen.json"
    write_scenario(scenario)
    before = now_us()
    start = cli_mod._load_scenario(str(scenario)).start_time_us
    assert before <= start <= now_us()


@pytest.mark.parametrize("speedup", ["0.5", "nan", "fast"])
@pytest.mark.parametrize("command", [["daqsim", "run"], ["e2e", "run", "--store", "db"]],
                         ids=["daqsim", "e2e"])
def test_bad_speedup_is_a_usage_error_before_any_connection(
    tmp_path, capsys, monkeypatch, command, speedup
):
    scenario = tmp_path / "scen.json"
    write_scenario(scenario, sensors=1, duration=3)

    def connect(*args, **kwargs):
        pytest.fail("--speedup must be checked before any connection is made")

    monkeypatch.setattr(cli_mod, "BusClient", connect)
    monkeypatch.setattr(cli_mod, "Broker", connect)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--scenario", str(scenario), "--speedup", speedup])
    assert exc.value.code == 2
    assert f"argument --speedup: must be a number >= 1, got '{speedup}'" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["65536", "70000"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["broker", "serve", "--listen", "127.0.0.1:{port}"], 3),
        (["daqsim", "run", "--scenario", "scen.json", "--broker", "127.0.0.1:{port}"], 3),
        (["connector", "run", "--store", "db", "--broker", "127.0.0.1:{port}"], 3),
        (["e2e", "run", "--scenario", "scen.json", "--store", "db",
          "--broker", "127.0.0.1:{port}"], 3),
        (["connector", "run", "--store", "db", "--metrics-port", "{port}"], 2),
        (["e2e", "run", "--scenario", "scen.json", "--store", "db",
          "--metrics-port", "{port}"], 2),
    ],
    ids=["broker", "daqsim", "connector", "e2e", "connector-metrics", "e2e-metrics"],
)
def test_a_port_above_65535_is_refused_before_any_socket_opens(
    tmp_path, capsys, caplog, monkeypatch, argv, code, port
):
    """A broker address is malformed (exit 3) and a metrics port a bad flag
    value (exit 2) when its port is beyond 65535, which a socket would
    refuse with an OverflowError or take modulo 65536."""
    write_scenario(tmp_path / "scen.json", sensors=1, duration=3)

    def connect(*args, **kwargs):
        pytest.fail("the port must be checked before any socket opens")

    for name in ("BusClient", "Broker", "Connector"):
        monkeypatch.setattr(cli_mod, name, connect)
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(port=port) for arg in argv]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --metrics-port: must be a port number 0-65535, got '{port}'" in err
    else:
        assert main(argv) == 3
        assert f"address must be host:port, got '127.0.0.1:{port}'" in caplog.text
    assert sorted(path.name for path in tmp_path.iterdir()) == ["scen.json"]


@pytest.mark.parametrize(
    "argv",
    [["connector", "run", "--store", "db", "--broker", "127.0.0.1:1"],
     ["e2e", "run", "--scenario", "scen.json", "--store", "db"]],
    ids=["connector", "e2e"],
)
def test_a_store_with_another_writer_exits_3_before_any_socket_opens(
    tmp_path, caplog, monkeypatch, argv
):
    """One writer per store: while another holds the root, ``connector
    run`` and ``e2e run`` exit 3 naming it, before a broker, client or
    connector thread starts, and write nothing to the store."""
    write_scenario(tmp_path / "scen.json", sensors=1, duration=3)

    def start(*args, **kwargs):
        pytest.fail("the store must be claimed before any socket or thread starts")

    for name in ("BusClient", "Broker"):
        monkeypatch.setattr(cli_mod, name, start)
    monkeypatch.setattr(cli_mod.Connector, "start", start)
    monkeypatch.chdir(tmp_path)
    with Store("db") as holder:
        holder.insert([])
        assert main(argv) == 3
        assert "store db has another writer" in caplog.text
    assert list((tmp_path / "db").iterdir()) == []


def test_e2e_small_run(tmp_path, capsys):
    scenario = tmp_path / "scen.json"
    write_scenario(scenario, sensors=2, duration=4)
    code, out, err = run_cli(
        [
            "e2e", "run", "--scenario", str(scenario),
            "--store", str(tmp_path / "db"), "--speedup", "50",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["published"] == 8
    assert report["stored"] == 8
    assert report["seq_gaps"] == 0
    assert report["ok"] is True


def test_e2e_twice_into_one_store_counts_each_run(tmp_path, capsys):
    """The second run's report counts its own samples, not the first run's."""
    scenario = tmp_path / "scen.json"
    write_scenario(scenario, sensors=1, duration=5)
    argv = [
        "e2e", "run", "--scenario", str(scenario),
        "--store", str(tmp_path / "db"), "--speedup", "1000",
    ]
    for _ in range(2):
        code, out, _ = run_cli(argv, capsys)
        report = json.loads(out)
        assert (code, report["ok"], report["published"], report["stored"]) == (0, True, 5, 5)
    with Store(tmp_path / "db") as store:
        assert stored_count(store.root) == 10


def two_dict_latencies(events):
    """Sorted latencies of a run's walls joined after the run, one dict per
    side, as ``run_e2e`` once did."""
    walls = {"publish": {}, "insert": {}}
    for side, key, wall in events:
        walls[side][key] = wall
    return sorted(
        walls["insert"][key] - walls["publish"][key]
        for key in walls["publish"].keys() & walls["insert"].keys()
    )


def test_e2e_latency_join_matches_the_two_dict_join(tmp_path, monkeypatch):
    events = []
    LatencyJoin = cli_mod._LatencyJoin

    class RecordingJoin(LatencyJoin):
        def publish(self, key, wall_us):
            events.append(("publish", key, wall_us))
            super().publish(key, wall_us)

        def insert(self, key, wall_us):
            events.append(("insert", key, wall_us))
            super().insert(key, wall_us)

    monkeypatch.setattr(cli_mod, "_LatencyJoin", RecordingJoin)
    scenario = tmp_path / "scen.json"
    write_scenario(scenario, sensors=3, duration=300)
    report = cli_mod.run_e2e(cli_mod.PipelineConfig(
        scenario_path=str(scenario), store_root=str(tmp_path / "db"), speedup=1e6,
    ))
    want = two_dict_latencies(events)
    assert report.latency_samples == len(want) == 900
    assert report.p50_latency_ms == want[450] / 1000.0
    assert report.p99_latency_ms == want[891] / 1000.0
    assert report.max_latency_ms == want[-1] / 1000.0

    # The same walls in a shuffled order: inserts noted before their
    # publish, and samples seen on one side only.
    random.Random(7).shuffle(events)
    events += [("publish", ("lost", 1), 5), ("insert", ("stray", 1), 9)]
    join = LatencyJoin()
    for side, key, wall in events:
        getattr(join, side)(key, wall)
    assert sorted(join.latencies_us) == two_dict_latencies(events)
    assert len(join._published) == len(join._inserted) == 1  # joined walls are dropped


def test_e2e_simulated_day_one_sensor(tmp_path, capsys):
    """One 1 Hz sensor for a simulated day, fully time-compressed."""
    scenario = tmp_path / "scen.json"
    scenario.write_text(
        json.dumps(
            {
                "site": "65", "daq": "1", "duration_s": 86_400,
                "sensors": [{"id": "epc1", "kind": "EPC", "rate_hz": 1,
                             "baseline": 100.0, "pulse_amplitude": 40.0}],
            }
        )
    )
    code, out, _ = run_cli(
        [
            "e2e", "run", "--scenario", str(scenario),
            "--store", str(tmp_path / "db"), "--speedup", "1000000",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["published"] == 86_400
    assert report["stored"] >= 86_400
    assert report["seq_gaps"] == 0


def test_e2e_empty_scenario_has_zero_counts(tmp_path, capsys):
    scenario = tmp_path / "scen.json"
    scenario.write_text(
        json.dumps({"site": "65", "daq": "1", "duration_s": 5, "sensors": []})
    )
    code, out, _ = run_cli(
        ["e2e", "run", "--scenario", str(scenario), "--store", str(tmp_path / "db")],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["published"] == 0
    assert report["stored"] == 0

"""Property test: no config file makes the CLI raise or print a traceback.

Config files are drawn from the documented keys with valid, junk and
small numeric values (grids up to 3x3 and gases up to N = 4, so every run
is quick), plus files of raw bytes.  Whatever the file says, ``main``
returns one of the documented exit codes, and every nonzero exit prints
exactly one line to stderr.  Examples are derandomized, so every run draws
the same ones.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rvblab.cli import CONFIG_KEYS, TASK_NAMES, main

VALID = {
    "lattice": st.sampled_from(["square-grid", "complete-bipartite"]),
    "rows": st.integers(-1, 3),
    "cols": st.integers(-1, 3),
    "boundary": st.sampled_from(["open", "periodic"]),
    "variant": st.sampled_from(["gas", "liquid", "custom"]),
    "n": st.integers(-1, 4),
    "tasks": st.lists(st.sampled_from(TASK_NAMES), min_size=1, max_size=3).map(" ".join),
    "out": st.just("ignored"),  # --out always overrides it
    "tol": st.sampled_from(["5e-4", "0", "-1", "nan", "inf", "1e400"]),
    "seed": st.integers(-2, 2**70),
}
assert set(VALID) == set(CONFIG_KEYS)
# the keys that decide whether a run gets as far as its tasks are always set
REQUIRED = ("lattice", "rows", "cols", "n", "tasks")
JUNK = st.text(st.characters(exclude_characters="\n\r#"), max_size=8)

KEY_VALUE_FILE = st.tuples(
    st.fixed_dictionaries(
        {k: VALID[k] for k in REQUIRED},
        optional={k: v for k, v in VALID.items() if k not in REQUIRED},
    ),
    st.dictionaries(st.sampled_from(CONFIG_KEYS), JUNK, max_size=2),
).map(lambda docs: "".join(f"{k} = {v}\n" for k, v in {**docs[0], **docs[1]}.items()).encode())


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(blob=KEY_VALUE_FILE | st.binary(max_size=48))
def test_any_config_file_exits_cleanly(tmp_path, capsys, blob):
    conf = tmp_path / "fuzz.conf"
    conf.write_bytes(blob)
    capsys.readouterr()
    code = main(["--config", str(conf), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (blob, code)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), (blob, err)

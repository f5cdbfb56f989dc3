"""Property tests: no config file or flag list makes the CLI raise or print a traceback.

Config files are drawn from the documented keys with valid, junk and
small numeric values (grids up to 3x3 and gases up to N = 4, so every run
is quick), plus files of raw bytes.  Each lattice kind draws only its own
size keys, so that runs get as far as their tasks; a key of the other
kind comes only as junk, and exits 2.  Flag lists are drawn the same way,
with out-of-range values (grids too large to enumerate are rejected before
any search) and unknown flags.  Whatever the input says, ``main`` returns
one of the documented exit codes, and every nonzero exit prints exactly
one line to stderr.  Examples are derandomized, so every run draws the
same ones.
"""

import pytest
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
# the keys that decide whether a run gets as far as its tasks are always
# set, and a lattice kind's optional keys are never those of the other kind
KIND_KEYS = {"square-grid": (("rows", "cols"), ("boundary",)), "complete-bipartite": (("n",), ())}
SHARED_OPTIONAL = ("variant", "out", "tol", "seed")
JUNK = st.text(st.characters(exclude_characters="\n\r#"), max_size=8)


def _per_kind(values, prefix=""):
    """Documents of ``values`` whose lattice keys all belong to the drawn kind."""

    def document(kind):
        required, optional = KIND_KEYS[kind]
        drawn = {prefix + k: values[prefix + k] for k in (*required, "tasks")}
        maybe = {prefix + k: values.get(prefix + k) for k in (*optional, *SHARED_OPTIONAL)}
        return st.fixed_dictionaries(
            {prefix + "lattice": st.just(kind), **drawn},
            optional={k: v for k, v in maybe.items() if v is not None},
        )

    return st.one_of([document(kind) for kind in KIND_KEYS])


KEY_VALUE_FILE = st.tuples(
    _per_kind(VALID),
    st.dictionaries(st.sampled_from(CONFIG_KEYS), JUNK, max_size=2),
).map(lambda docs: "".join(f"{k} = {v}\n" for k, v in {**docs[0], **docs[1]}.items()).encode())


FUZZ_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _assert_clean_exit(code, err, drawn):
    assert code in (0, 1, 2, 3), (drawn, code)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), (drawn, err)


@FUZZ_SETTINGS
@given(blob=KEY_VALUE_FILE | st.binary(max_size=48))
def test_any_config_file_exits_cleanly(tmp_path, capsys, blob):
    conf = tmp_path / "fuzz.conf"
    conf.write_bytes(blob)
    capsys.readouterr()
    code = main(["--config", str(conf), "--out", str(tmp_path / "out")])
    _assert_clean_exit(code, capsys.readouterr().err, blob)


# Flag values: the config file's valid values, junk text (line breaks
# included), and values out of range.  Every huge size makes an odd site
# count or more than 2 * 10**6 sites, which is rejected before any search.
ARG_JUNK = st.text(max_size=8)
HUGE = st.sampled_from(["2000002", "10000001", str(10**30)])
FLAG_VALUES = {
    "--lattice": VALID["lattice"],
    "--rows": VALID["rows"].map(str) | HUGE,
    "--cols": VALID["cols"].map(str) | HUGE,
    "--boundary": VALID["boundary"],
    "--variant": VALID["variant"],
    "--n": VALID["n"].map(str) | HUGE,
    "--tol": VALID["tol"],
    "--tasks": st.lists(st.sampled_from(TASK_NAMES), min_size=1, max_size=3),
}
UNKNOWN_FLAG = st.sampled_from(["--bogus", "--seeds", "-x", "--", "--tasks=", "-r"])


def _argv(drawn):
    flags, spoilt, extra = drawn
    if spoilt is not None:
        flags = {**flags, spoilt[0]: spoilt[1]}
    argv = []
    for flag, value in flags.items():
        argv += [flag, *value] if isinstance(value, list) else [flag, value]
    return argv + extra


FLAG_ARGV = st.tuples(
    _per_kind(FLAG_VALUES, "--"),
    # at most one flag gets a junk value or no value at all
    st.none() | st.tuples(st.sampled_from(sorted(FLAG_VALUES)), ARG_JUNK | st.just([])),
    st.lists(UNKNOWN_FLAG | ARG_JUNK, max_size=1),
).map(_argv)


@FUZZ_SETTINGS
@given(argv=FLAG_ARGV)
def test_any_flag_list_exits_cleanly(tmp_path, capsys, argv):
    capsys.readouterr()
    code = main([*argv, "--out", str(tmp_path / "out")])
    _assert_clean_exit(code, capsys.readouterr().err, argv)


def test_help_still_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rvblab")

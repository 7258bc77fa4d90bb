"""README's three field tables against the key tables the program reads:
the attack block (acceptance.ATTACK_FIELDS), a sketch family's params
(sketch._FIELDS) and a hard family's params (harddist._FIELDS); its sampler
table against the envelopes it quotes (dgauss._envelope); and every
backticked sketchlab name in README, the demos and the package's own source
against the package; and README's Environment paragraph against the
environment variables the package reads."""

import functools
import importlib
import json
import math
import pkgutil
import re
from pathlib import Path

import sketchlab
from sketchlab import acceptance, dgauss, harddist, sketch
from sketchlab.fields import OPTIONAL, REQUIRED

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()
MODULES = {m.name for m in pkgutil.iter_modules(sketchlab.__path__)}
# `module.name` or `sketchlab.module.name`, a dotted path after the name
# allowed; the closing backtick may follow call arguments
REFERENCE = re.compile(r"`(?:sketchlab\.)?([a-z_]+)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def tables(header):
    """The body rows, as lists of cells, of each README table whose header
    row is `header`."""
    found, rows = [], None
    for line in README.splitlines():
        if line == header:
            rows = []
            found.append(rows)
        elif rows is not None and line.startswith("| ") and not line.startswith("| ---"):
            rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line[1:-1])])
        elif not line.startswith("|"):
            rows = None
    return found


def default(cell):
    """A default cell as a value: "—" is a required key, "absent..." a key
    left out, else the literal in its first backticks (or its first word),
    with a/b read as a fraction and Infinity as inf."""
    if cell == "—":
        return REQUIRED
    if cell.startswith("absent"):
        return OPTIONAL
    m = re.match(r"`([^`]*)`", cell)
    text = m.group(1) if m else cell.split()[0]
    if re.fullmatch(r"\d+/\d+", text):
        a, b = text.split("/")
        return int(a) / int(b)
    return json.loads(text)


def same(a, b):
    """Equal defaults of one type, or the same REQUIRED or OPTIONAL mark."""
    return a is b or type(a) is type(b) and a == b


def family_rows(rows, names):
    """{(family, key): default} of a family table; "every family" is each
    of `names`."""
    out = {}
    for fams, key, _type, _bound, cell in rows:
        for fam in names if fams == "every family" else re.findall(r"`([^`]+)`", fams):
            assert (fam, key.strip("`")) not in out, (fam, key)
            out[fam, key.strip("`")] = default(cell)
    return out


def test_attack_table_lists_the_block_keys_and_filled_defaults():
    [rows] = tables("| key | type | bound | default |")
    got = {key.strip("`"): default(cell) for key, _type, _bound, cell in rows}
    filled = acceptance.read_attack_block({"n": 8, "r": 1, "family": "sign", "B": 8.0})
    want = {key: REQUIRED if spec[2] is REQUIRED else filled[key]
            for key, spec in acceptance.ATTACK_FIELDS.items()}
    assert list(got) == list(want)
    assert all(same(got[k], want[k]) for k in want), (got, want)


def test_family_tables_list_each_key_and_default():
    sketch_rows, hard_rows = tables("| family | key | type | bound | default |")
    for rows, module, names in ((sketch_rows, sketch, sketch.FAMILIES),
                                (hard_rows, harddist, harddist.FAMILY_NAMES)):
        got = family_rows(rows, names)
        want = {(fam, key): spec[2] for fam in names
                for key, spec in module._FIELDS[fam].items()}
        assert sorted(got) == sorted(want)
        assert all(same(got[k], want[k]) for k in want), module.__name__


def test_backticked_names_resolve():
    refs, missing = 0, []
    for path in [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py")),
                 *sorted((ROOT / "src" / "sketchlab").glob("*.py"))]:
        for m in REFERENCE.finditer(path.read_text()):
            module, name = m.groups()
            if module not in MODULES:
                continue
            refs += 1
            try:
                functools.reduce(getattr, name.split("."),
                                 importlib.import_module(f"sketchlab.{module}"))
            except AttributeError:
                missing.append(f"{path.name}: {m.group(0)}`")
    assert refs and not missing, missing


def test_sampler_table_is_one_minus_squeeze():
    # each row's p is 1 - squeeze of the envelope its draw rounds under, at
    # n = 128, to the three significant digits quoted
    [rows] = tables("| draw | rounding variance | support | p |")
    r0sq = dgauss.smoothing_sigma2(128, 4)
    assert f"r0² = r0²(128) = {r0sq:.2f}" in README
    assert len(rows) == 4
    for _draw, variance, support, p in rows:
        s2 = int(re.fullmatch(r"(\d+)·r0²", variance).group(1)) * r0sq
        bound = {"⌈12σ⌉ + 1": None, "8σ": dgauss.OFFSET_SIGMAS * math.sqrt(s2)}[support]
        assert float(p) == float(f"{1.0 - dgauss._envelope(s2, bound).squeeze:.3g}"), variance


def test_environment_paragraph_names_every_variable_read():
    # every environment variable the package reads, each by a literal name,
    # is named in README's Environment paragraph
    reads, names = 0, []
    for path in sorted((ROOT / "src" / "sketchlab").glob("*.py")):
        text = path.read_text()
        reads += len(re.findall(r"\bos\.(?:environ|getenv)\b", text))
        names += re.findall(r"\bos\.(?:environ\.get\(|environ\[|getenv\()[\"']([A-Z_]\w*)", text)
    [paragraph] = re.findall(r"^Environment: .*?(?=\n\n)", README, re.M | re.S)
    assert names and reads == len(names)
    assert {n for n in names if f"`{n}`" not in paragraph} == set()

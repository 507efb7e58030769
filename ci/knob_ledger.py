#!/usr/bin/env python3
"""Knob ledger: every config field has a README row that shows its effect.

EngineConfig is the one place an RPC knob is stated. The ledger reads its
body and the bodies of the structs it embeds from their headers, and the
knob table in README.md, and fails when

  * a config field has no row in the table, or
  * a row names a field that no longer exists (a deleted knob left behind),
  * a row that names a config field has an empty "Shown by" cell, or
  * a `struct ...Config` in src/ other than those EngineConfig embeds
    declares a field typed as one of them: a second copy of a knob family,
    filled field by field from EngineConfig.

Field names in the table (backticked, first column):

  * EngineConfig's own fields bare: `server_shards`;
  * fields of a struct EngineConfig embeds under its member name:
    `retry.call_timeout`, `pool.srq_depth`.

A bare name after a qualified one in the same cell inherits its prefix, so
"`retry.call_timeout`, `max_retries`" names retry.call_timeout and
retry.max_retries.

Usage: ci/knob_ledger.py [REPO_ROOT]   (exit 0 when the ledger is complete)
"""
import re
import sys
from pathlib import Path

# Struct name -> header (relative to src/).
STRUCTS = {
    "EngineConfig": "rpcoib/engine_config.hpp",
    "RpcRetryPolicy": "rpc/retry.hpp",
    "OverloadConfig": "rpc/overload.hpp",
    "BatchConfig": "rpc/batch.hpp",
    "SessionConfig": "rpc/session.hpp",
    "StreamConfig": "rpcoib/stream/stream.hpp",
    "UdConfig": "rpcoib/wire.hpp",
    "OneSidedConfig": "rpcoib/wire.hpp",
    "PoolConfig": "rpcoib/buffer_pool.hpp",
}

# `type name = init;`, `type name{...};` or `type name;` at struct depth 1.
FIELD = re.compile(r"^\s*([A-Za-z_][\w:<>, ]*?)\s+(\w+)\s*(?:=[^;]*|\{[^}]*\})?;\s*$")


def body_fields(text: str, start: int, name: str):
    """[(field, type)] of the struct body opening at `start`, in order."""
    fields, depth = [], 1
    for line in text[start:].splitlines():
        code = line.split("//", 1)[0]
        if depth == 1 and code.strip() == "};":
            return fields
        if depth == 1:
            f = FIELD.match(code)
            if f:
                fields.append((f.group(2), f.group(1).split("::")[-1]))
        depth += code.count("{") - code.count("}")
    sys.exit(f"knob_ledger: unterminated struct {name}")


def struct_fields(src: Path, name: str):
    """[(field, type)] of `struct name { ... };` in declaration order."""
    text = (src / STRUCTS[name]).read_text()
    m = re.search(r"^struct " + name + r" \{\n", text, re.M)
    if m is None:
        sys.exit(f"knob_ledger: struct {name} not found in src/{STRUCTS[name]}")
    return body_fields(text, m.end(), name)


def regrown_copies(src: Path):
    """`struct ...Config` fields outside STRUCTS typed as a STRUCTS family."""
    families = set(STRUCTS) - {"EngineConfig"}
    errors = []
    for header in sorted(src.rglob("*.hpp")):
        text = header.read_text()
        for m in re.finditer(r"^\s*struct (\w+Config) \{\n", text, re.M):
            if m.group(1) in STRUCTS:
                continue
            for field, ftype in body_fields(text, m.end(), m.group(1)):
                if ftype in families:
                    errors.append(f"{m.group(1)}::{field} ({header.relative_to(src)}) copies "
                                  f"{ftype}; state it once, in EngineConfig")
    return errors


def expected_knobs(src: Path):
    """Ledger names of every config field, and the prefixes they live under."""
    knobs, prefixes = [], set()
    for field, ftype in struct_fields(src, "EngineConfig"):
        if ftype in STRUCTS:
            prefixes.add(field + ".")
            knobs += [f"{field}.{sub}" for sub, _ in struct_fields(src, ftype)]
        else:
            knobs.append(field)
    return knobs, prefixes


def ledger_rows(readme: Path):
    """[(names, shown_by)] for each row of the table headed by Shown by."""
    rows, header = [], None
    for line in readme.read_text().splitlines():
        if not line.startswith("|"):
            header = None
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if header is None:
            header = cells
            continue
        if "Shown by" not in header or set(line) <= set("|- "):
            continue
        names, prefix = [], ""
        for token in re.findall(r"`([^`]+)`", cells[0]):
            token = token.strip()
            for sep in ("::", "."):
                if sep in token:
                    prefix = token.rsplit(sep, 1)[0] + sep
                    break
            else:
                token = prefix + token
            names.append(token)
        rows.append((names, cells[header.index("Shown by")]))
    return rows


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    knobs, prefixes = expected_knobs(root / "src")
    rows = ledger_rows(root / "README.md")
    if not rows:
        print("knob_ledger: README.md has no knob table with a 'Shown by' column")
        return 1
    errors = []
    named = set()
    for names, shown_by in rows:
        for n in names:
            is_knob = n in knobs
            if not is_knob and any(n.startswith(p) for p in prefixes):
                errors.append(f"row names `{n}`, which is no config field")
            if is_knob:
                named.add(n)
                if not shown_by:
                    errors.append(f"`{n}` has an empty 'Shown by' cell")
    errors += [f"`{k}` has no row in README's knob table" for k in knobs if k not in named]
    errors += regrown_copies(root / "src")
    for e in errors:
        print("knob_ledger:", e)
    if errors:
        return 1
    print(f"knob_ledger: {len(knobs)} config fields, each with a row")
    return 0


if __name__ == "__main__":
    sys.exit(main())

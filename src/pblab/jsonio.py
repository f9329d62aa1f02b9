"""The one writer of JSON artifacts: two-space indent, sorted keys, trailing newline."""

import json


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")

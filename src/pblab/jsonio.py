"""The one writer of each artifact format: JSON (two-space indent, sorted keys, trailing newline) and CSV."""

import csv
import json
import sys


def is_number(value) -> bool:
    """Whether a JSON value is a number a float holds: an int or a float, never a bool, of finite magnitude."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row, in the csv module's default dialect."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)

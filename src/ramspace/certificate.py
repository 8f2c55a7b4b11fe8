"""The one certificate grammar, shared by both producers and both verifiers.

A certificate is lines of text: a `<kind> v1` line, one params line
(`parse_params_str`), `key=value` field lines in the writer's order,
and one `<key>=<text>;<tag>=<int>` line per list entry.  `read` is
strict: a line it cannot read, or a field key or list text that
appears twice, raises ValueError, so a certificate that says two
things never verifies.
"""

from .spaces import parse_params_str


def write(kind: str, params: str, fields: dict, key: str, tag: str, entries) -> str:
    """The certificate text; `entries` are (text, int) pairs."""
    lines = [f"{kind} v1", params, *(f"{k}={v}" for k, v in fields.items())]
    lines += (f"{key}={text};{tag}={n}" for text, n in entries)
    return "\n".join(lines) + "\n"


def read(text: str, kind: str, key: str, tag: str) -> tuple[dict, dict, list]:
    """(params, fields, entries): the fields as strings, the entries as
    (text, int) pairs, each in the certificate's order."""
    head, params, *rest = text.splitlines()
    if head != f"{kind} v1":
        raise ValueError(f"not a {kind} v1 certificate")
    fields: dict[str, str] = {}
    entries: dict[str, int] = {}
    for line in rest:
        name, eq, value = line.partition("=")
        if name == key:
            value, _, n = value.partition(f";{tag}=")
            if value in entries:
                raise ValueError(f"repeated {key} line {line!r}")
            entries[value] = int(n)  # ValueError when there is no ;<tag>=<int>
        elif not eq or name in fields:
            raise ValueError(f"bad or repeated field line {line!r}")
        else:
            fields[name] = value
    return parse_params_str(params), fields, list(entries.items())

"""The example proofs of corpus/, read with the library's own reader.

Each corpus/<stem>.proof file declares its theory and one proof named
<stem>; entries() returns them in file-name order.
"""

from dataclasses import dataclass
from pathlib import Path

from mupcf.format import parse_file

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@dataclass(frozen=True)
class Entry:
    name: str
    theory: str
    goal: object   # logic.Sequent
    proof: object  # logic.Proof


def entries():
    out = []
    for path in sorted(CORPUS.glob("*.proof")):
        ws = parse_file(path)
        for name, (goal, proof) in ws.proofs.items():
            out.append(Entry(name, ws.theory_name, goal, proof))
    return out


def entry(name):
    """The entry of corpus/<name>.proof, read alone; KeyError if there is
    none."""
    path = CORPUS / f"{name}.proof"
    if not path.is_file():
        raise KeyError(name)
    ws = parse_file(path)
    goal, proof = ws.proofs[name]
    return Entry(name, ws.theory_name, goal, proof)

"""The update language: state-changing primitives and transactions (Thesis 8).

    "Complex reactions can conveniently be built as compounds of primitive
    actions such as insertions, deletions, or modifications of XML
    elements, RDF triples, or OWL facts."

- :mod:`repro.updates.primitives` — insert/delete/replace on data terms
  (query-term targeting, construct-term payloads) and on RDF graphs;
- :mod:`repro.updates.transactions` — atomic execution of compound updates
  over resource stores, rolled back from an O(ops) undo log.
"""

from repro.updates.primitives import (
    delete_terms,
    insert_child,
    rdf_delete,
    rdf_insert,
    replace_terms,
)
from repro.updates.transactions import Transaction, atomically

__all__ = [
    "Transaction",
    "atomically",
    "delete_terms",
    "insert_child",
    "rdf_delete",
    "rdf_insert",
    "replace_terms",
]

"""The surface syntax for reactive rule programs (the XChange role).

A small, readable textual language for whole rules and rule programs::

    RULE notify-shipment
    ON order{{ id[var O], customer[var C] }} THEN payment{{ id[var O] }}
    IF IN "http://shop.example/stock" : item{{ id[var O], qty[var Q] }}
       AND var Q > 0
    DO SEQUENCE
         REPLACE qty[var Q] IN "http://shop.example/stock"
                 BY qty[sub(var Q, 1)]
         ALSO RAISE TO "http://warehouse.example" ship{ id[var O], to[var C] }
       END

Keywords are upper-case; everything lower-case inside patterns is the term
language from :mod:`repro.terms.parser`.  The text syntax is an *input*
format: programs are written in it and parsed into rules.  Rules travel
between nodes in one wire format, the rule terms of
:mod:`repro.core.meta` (Thesis 11); there is no rule-to-text direction in
the package.
"""

from repro.lang.parser import (
    parse_action,
    parse_condition,
    parse_event_query,
    parse_program,
    parse_rule,
)

__all__ = [
    "parse_action",
    "parse_condition",
    "parse_event_query",
    "parse_program",
    "parse_rule",
]

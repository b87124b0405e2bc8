"""repro — a full reproduction of *Interactive Data Exploration with
Smart Drill-Down* (Joglekar, Garcia-Molina, Parameswaran; ICDE 2016).

Quickstart::

    from repro import DrillDownSession
    from repro.datasets import generate_retail

    session = DrillDownSession(generate_retail(), k=3, mw=3.0)
    session.expand(session.root.rule)
    print(session.to_text())

The public surface is organised as:

* :mod:`repro.table` — columnar table substrate (schemas, dictionary
  encoding, CSV I/O, bucketization);
* :mod:`repro.core` — rules, weighting functions, scoring, the BRS
  greedy algorithm and the drill-down operators;
* :mod:`repro.storage` — simulated disk with metered scans;
* :mod:`repro.sampling` — reservoir sampling, the SampleHandler, and
  the sample-memory allocation solvers;
* :mod:`repro.session` / :mod:`repro.ui` — the interactive prototype;
* :mod:`repro.serving` — the multi-tenant serving tier (catalog,
  session registry, context sharing, fair scheduling, HTTP front end);
* :mod:`repro.datasets` — synthetic stand-ins for the paper's data;
* :mod:`repro.baselines`, :mod:`repro.hardness`,
  :mod:`repro.experiments` — evaluation machinery.
"""

from repro.core import (
    BRSResult,
    brs_time_limited,
    adjust_column_preference,
    BitsWeight,
    CallableWeight,
    ColumnIndicatorWeight,
    DrillDownResult,
    MergedWeight,
    ParametricWeight,
    Rule,
    RuleList,
    STAR,
    ScoredRule,
    SizeMinusOneWeight,
    SizeWeight,
    StarConstrainedWeight,
    WeightFunction,
    brs,
    brs_iter,
    count,
    cover_mask,
    rule_drilldown,
    score_set,
    star_drilldown,
    traditional_drilldown,
)
from repro.errors import ReproError
from repro.sampling import Sample, SampleHandler
from repro.session import DrillDownSession
from repro.storage import DiskTable
from repro.table import (
    CategoricalColumn,
    col,
    group_by,
    ColumnKind,
    ColumnSchema,
    Interval,
    NumericColumn,
    Schema,
    Table,
    bucketize,
    read_csv,
    write_csv,
)

__version__ = "1.0.0"

__all__ = [
    "BRSResult",
    "BitsWeight",
    "CallableWeight",
    "CategoricalColumn",
    "ColumnIndicatorWeight",
    "ColumnKind",
    "ColumnSchema",
    "DiskTable",
    "DrillDownResult",
    "DrillDownServer",
    "DrillDownSession",
    "Interval",
    "MergedWeight",
    "NumericColumn",
    "ParametricWeight",
    "ReproError",
    "Rule",
    "RuleList",
    "STAR",
    "Sample",
    "SampleHandler",
    "Schema",
    "ShardRouter",
    "ScoredRule",
    "SizeMinusOneWeight",
    "SizeWeight",
    "StarConstrainedWeight",
    "Table",
    "WeightFunction",
    "brs",
    "brs_iter",
    "brs_time_limited",
    "adjust_column_preference",
    "bucketize",
    "col",
    "count",
    "cover_mask",
    "group_by",
    "read_csv",
    "rule_drilldown",
    "score_set",
    "star_drilldown",
    "traditional_drilldown",
    "write_csv",
    "__version__",
]


def __getattr__(name: str):
    # The serving tier loads on first use, so that importing the
    # engine or a session (``import repro.session``) pulls in nothing
    # from ``repro.serving``.
    if name in ("DrillDownServer", "ShardRouter"):
        from repro import serving

        return getattr(serving, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

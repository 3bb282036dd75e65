"""The archaeology lake: 5 tables, 12 questions (KramaBench analogue).

Shape matches the paper's Table 1 (5 tables, ~11,289 avg rows, 16 avg
columns).  Question difficulty classes (the ``design`` tag):

- ``both``: single-table aggregates with no filter, or filters whose value
  is visible in sample rows — a one-shot planner solves these;
- ``seeker``: need value grounding (rare filter spellings), joins, or data
  preparation (linear interpolation) — the iterative, grounded loop wins;
- ``none``: ratios, group-argmax, weighted/derived measures — beyond both
  (they keep accuracy below 100% exactly as KramaBench does).
"""

from __future__ import annotations

import datetime
from typing import List

from ..core.convergence import Concept
from ..relational.catalog import Database
from ..relational.table import Table
from .generator import dates_between, make_rng, normal, pick, scaled, uniform_int, with_nulls
from .questions import BenchmarkDataset, Question, interp_first_last_avg

REGIONS = ["Cretan Hills", "Iberian Valley", "Maltese Islands", "Gozo Plateau", "Sicilian Coast"]
MATERIALS = ["Bronze", "Ceramic", "Iron", "Stone", "Glass", "Gold", "Silver", "Bone"]
PERIODS = ["Roman", "Classical", "Archaic", "Neolithic", "Hellenistic", "Byzantine"]
SUPERVISORS = ["Dr. Chen", "Dr. Okafor", "Dr. Moreno", "Dr. Haddad"]


def _field_samples(rng, n: int) -> Table:
    # Fixed prefix rows pin what one-shot planners can see in samples: the
    # first three rows avoid the rare regions used by grounded questions.
    regions = pick(rng, REGIONS, n, p=[0.3, 0.3, 0.15, 0.15, 0.1])
    regions[:3] = ["Cretan Hills", "Iberian Valley", "Cretan Hills"]
    return Table.from_columns(
        "field_samples",
        {
            "sample_id": list(range(1, n + 1)),
            "site_id": uniform_int(rng, 1, 150, n),
            "region": regions,
            "record_date": dates_between(
                rng, datetime.date(1998, 1, 1), datetime.date(2023, 12, 31), n
            ),
            "potassium_ppm": with_nulls(rng, normal(rng, 210.0, 40.0, n, lo=40, hi=400, decimals=4), 0.12),
            "sodium_ppm": with_nulls(rng, normal(rng, 95.0, 22.0, n, lo=5, hi=220), 0.08),
            "calcium_ppm": normal(rng, 410.0, 80.0, n, lo=50, hi=800),
            "magnesium_ppm": normal(rng, 130.0, 30.0, n, lo=10, hi=300),
            "phosphorus_ppm": with_nulls(rng, normal(rng, 58.0, 15.0, n, lo=2, hi=140), 0.05),
            "nitrogen_pct": normal(rng, 0.35, 0.1, n, lo=0.01, hi=0.9, decimals=3),
            "ph_level": normal(rng, 7.1, 0.6, n, lo=4.5, hi=9.5),
            "moisture_pct": with_nulls(rng, normal(rng, 22.0, 7.0, n, lo=1, hi=55), 0.1),
            "depth_cm": uniform_int(rng, 5, 300, n),
            "collector": pick(rng, SUPERVISORS, n),
            "method": pick(rng, ["auger", "core", "trench", "surface"], n),
            "notes": pick(rng, ["", "weathered", "clay layer", "ash lens", "disturbed"], n),
        },
    )


def _artifacts(rng, n: int) -> Table:
    materials = pick(rng, MATERIALS, n, p=[0.22, 0.3, 0.14, 0.12, 0.08, 0.05, 0.05, 0.04])
    materials[:3] = ["Bronze", "Ceramic", "Iron"]  # Bronze is sample-visible
    periods = pick(rng, PERIODS, n, p=[0.3, 0.22, 0.16, 0.12, 0.1, 0.1])
    periods[:3] = ["Roman", "Classical", "Roman"]  # Hellenistic is not
    return Table.from_columns(
        "artifacts",
        {
            "artifact_id": list(range(1, n + 1)),
            "site_id": uniform_int(rng, 1, 150, n),
            "artifact_type": pick(rng, ["vessel", "coin", "tool", "ornament", "weapon", "figurine"], n),
            "material": materials,
            "period": periods,
            "mass_grams": normal(rng, 180.0, 90.0, n, lo=0.5, hi=900, decimals=2),
            "length_cm": normal(rng, 12.0, 6.0, n, lo=0.5, hi=60),
            "width_cm": normal(rng, 6.0, 3.0, n, lo=0.2, hi=40),
            "condition": pick(rng, ["intact", "fragmentary", "restored", "corroded"], n),
            "discovered_date": dates_between(
                rng, datetime.date(1960, 1, 1), datetime.date(2023, 12, 31), n
            ),
            "excavator": pick(rng, SUPERVISORS, n),
            "layer": uniform_int(rng, 1, 12, n),
            "catalog_code": [f"CAT-{i:06d}" for i in range(1, n + 1)],
            "museum": pick(rng, ["National Museum", "Regional Collection", "University Archive"], n),
            "insured_value": normal(rng, 5200.0, 3100.0, n, lo=50, hi=40000, decimals=2),
            "description": pick(rng, ["", "decorated rim", "inscription visible", "burnt traces"], n),
        },
    )


def _sites(rng, n: int) -> Table:
    protection = pick(rng, ["None", "National Register", "World Heritage"], n, p=[0.6, 0.3, 0.1])
    protection[:3] = ["World Heritage", "National Register", "None"]  # visible in samples
    site_types = pick(rng, ["coastal", "inland", "upland"], n, p=[0.4, 0.4, 0.2])
    return Table.from_columns(
        "sites",
        {
            "site_id": list(range(1, n + 1)),
            "site_name": [f"Site {chr(65 + i % 26)}{i:03d}" for i in range(1, n + 1)],
            "region": pick(rng, REGIONS, n),
            "country": pick(rng, ["Malta", "Italy", "Greece", "Spain"], n),
            "latitude": normal(rng, 36.5, 2.0, n, decimals=5),
            "longitude": normal(rng, 14.3, 3.0, n, decimals=5),
            "elevation_m": uniform_int(rng, 0, 900, n),
            "site_type": site_types,
            "first_excavation_year": uniform_int(rng, 1890, 1995, n),
            "last_excavation_year": uniform_int(rng, 1996, 2023, n),
            "area_sq_m": uniform_int(rng, 50, 20000, n),
            "soil_class": pick(rng, ["terra rossa", "rendzina", "alluvial", "sandy"], n),
            "access_road": pick(rng, [True, False], n),
            "steward": pick(rng, SUPERVISORS, n),
            "protection_status": protection,
            "notes": pick(rng, ["", "partially flooded", "tourist access", "restricted"], n),
        },
    )


def _radiocarbon(rng, n: int) -> Table:
    materials = pick(rng, ["Bone", "Seed", "Charcoal", "Shell", "Wood"], n, p=[0.3, 0.2, 0.25, 0.1, 0.15])
    materials[:3] = ["Bone", "Seed", "Wood"]  # Charcoal is not sample-visible
    calibrated_start = uniform_int(rng, -4500, 1200, n)
    # The global maximum must come from a non-Charcoal record so that an
    # unfiltered MAX is measurably wrong for the charcoal question.
    calibrated_start[0] = 1450
    materials[0] = "Bone"
    return Table.from_columns(
        "radiocarbon_dates",
        {
            "lab_code": [f"LAB-{i:06d}" for i in range(1, n + 1)],
            "sample_id": uniform_int(rng, 1, max(n, 100), n),
            "site_id": uniform_int(rng, 1, 150, n),
            "material_dated": materials,
            "age_bp": uniform_int(rng, 800, 6500, n),
            "age_error": uniform_int(rng, 15, 120, n),
            "calibrated_start": calibrated_start,
            "calibrated_end": [s + int(d) for s, d in zip(calibrated_start, uniform_int(rng, 50, 400, n))],
            "method": pick(rng, ["AMS", "LSC"], n, p=[0.8, 0.2]),
            "lab_name": pick(rng, ["Oxford", "Zurich", "Tucson", "Kyoto"], n),
            "submitted_by": pick(rng, SUPERVISORS, n),
            "submission_date": dates_between(rng, datetime.date(1990, 1, 1), datetime.date(2023, 12, 31), n),
            "delta_c13": normal(rng, -24.0, 2.0, n),
            "quality_flag": pick(rng, ["ok", "ok", "ok", "low"], n),
            "context_layer": uniform_int(rng, 1, 12, n),
            "remarks": pick(rng, ["", "contamination suspected", "duplicate run"], n),
        },
    )


def _excavation_log(rng, n: int) -> Table:
    finds = uniform_int(rng, 0, 60, n)
    return Table.from_columns(
        "excavation_log",
        {
            "entry_id": list(range(1, n + 1)),
            "site_id": uniform_int(rng, 1, 150, n),
            "log_date": dates_between(rng, datetime.date(2010, 1, 1), datetime.date(2023, 12, 31), n),
            "team_size": uniform_int(rng, 2, 25, n),
            "hours_worked": normal(rng, 7.5, 1.5, n, lo=2, hi=12),
            "area_opened_sq_m": normal(rng, 14.0, 6.0, n, lo=1, hi=60),
            "finds_count": finds,
            "weather": pick(rng, ["sunny", "rain", "wind", "overcast"], n),
            "supervisor": pick(rng, SUPERVISORS, n),
            "season": pick(rng, ["spring", "summer", "autumn"], n),
            "trench": pick(rng, ["T1", "T2", "T3", "T4", "T5"], n),
            "level_cm": uniform_int(rng, 10, 400, n),
            "equipment": pick(rng, ["hand tools", "sieve", "total station", "drone"], n),
            "funding_source": pick(rng, ["university", "grant", "ministry"], n),
            "daily_cost": normal(rng, 1450.0, 420.0, n, lo=200, hi=4000, decimals=2),
            "summary": pick(rng, ["", "pottery concentration", "wall foundation", "sterile layer"], n),
        },
    )


def build_archaeology_lake(scale: float = 1.0, seed: int = 7) -> Database:
    """Build the archaeology lake (paper shape at ``scale=1.0``)."""
    rng = make_rng(seed)
    lake = Database("archaeology")
    # Row counts average to the paper's 11,289; excavation_log is kept small
    # enough that it is the one table a 200k-context model can ingest whole
    # (the §4.2 experiment needs both the overflow and the fits-but-fails path).
    lake.register(_field_samples(rng, scaled(24_000, scale)))
    lake.register(_artifacts(rng, scaled(20_000, scale)))
    lake.register(_sites(rng, 150))
    lake.register(_radiocarbon(rng, scaled(9_000, scale)))
    lake.register(_excavation_log(rng, scaled(3_295, scale)))
    return lake


# ----------------------------------------------------------------------
# Reference implementations (ground truth)
# ----------------------------------------------------------------------


def _q1(lake: Database) -> float:
    return lake.query_value("SELECT AVG(potassium_ppm) FROM field_samples")


def _q2(lake: Database) -> float:
    return interp_first_last_avg(
        lake,
        "field_samples",
        "record_date",
        "potassium_ppm",
        4,
        where=("region", "Maltese Islands"),
    )


def _q3(lake: Database) -> int:
    return lake.query_value("SELECT COUNT(*) FROM artifacts WHERE material = 'Bronze'")


def _q4(lake: Database) -> float:
    return lake.query_value(
        "SELECT AVG(mass_grams) FROM artifacts WHERE period = 'Hellenistic'"
    )


def _q5(lake: Database) -> float:
    return lake.query_value(
        "SELECT AVG(f.phosphorus_ppm) FROM field_samples f JOIN sites s "
        "ON f.site_id = s.site_id WHERE s.protection_status = 'World Heritage'"
    )


def _q6(lake: Database) -> float:
    return lake.query_value("SELECT MEDIAN(age_bp) FROM radiocarbon_dates")


def _q7(lake: Database) -> float:
    gold = lake.query_value("SELECT AVG(insured_value) FROM artifacts WHERE material = 'Gold'")
    silver = lake.query_value("SELECT AVG(insured_value) FROM artifacts WHERE material = 'Silver'")
    return gold / silver


def _q8(lake: Database) -> int:
    table = lake.execute(
        "SELECT YEAR(log_date) AS y, SUM(finds_count) AS total FROM excavation_log "
        "GROUP BY YEAR(log_date) ORDER BY total DESC LIMIT 1"
    )
    return table.rows[0][0]


def _q9(lake: Database) -> float:
    coastal = lake.query_value(
        "SELECT AVG(f.ph_level) FROM field_samples f JOIN sites s ON f.site_id = s.site_id "
        "WHERE s.site_type = 'coastal'"
    )
    inland = lake.query_value(
        "SELECT AVG(f.ph_level) FROM field_samples f JOIN sites s ON f.site_id = s.site_id "
        "WHERE s.site_type = 'inland'"
    )
    return coastal - inland


def _q10(lake: Database) -> float:
    low = lake.query_value("SELECT COUNT(*) FROM radiocarbon_dates WHERE quality_flag = 'low'")
    total = lake.query_value("SELECT COUNT(*) FROM radiocarbon_dates")
    return 100.0 * low / total


def _q11(lake: Database) -> int:
    return lake.query_value(
        "SELECT COUNT(*) FROM (SELECT site_id FROM artifacts GROUP BY site_id "
        "HAVING COUNT(*) > 100) s"
    )


def _q12(lake: Database) -> float:
    table = lake.execute(
        "SELECT SUM(moisture_pct * depth_cm) AS num, SUM(depth_cm) AS den "
        "FROM field_samples WHERE moisture_pct IS NOT NULL"
    )
    num, den = table.rows[0]
    return num / den


def build_archaeology_questions() -> List[Question]:
    c = Concept
    return [
        Question(
            "arch-01", "archaeology",
            "What is the average potassium in ppm across all field samples?",
            "soil chemistry from past excavation studies",
            [c("field samples", "seed"), c("potassium", "column")],
            ["field_samples"], _q1, design="both",
        ),
        Question(
            "arch-02", "archaeology",
            "What is the average potassium in ppm from the first and last time the "
            "study recorded samples in the Maltese Islands? Assume that potassium is "
            "linearly interpolated between samples. Round your answer to 4 decimal places.",
            "historical data from the Maltese region",
            [
                c("Maltese", "seed"),
                c("potassium", "column"),
                c("linearly interpolated", "operation"),
                c("first and last recorded", "operation"),
            ],
            ["field_samples"], _q2, design="seeker",
        ),
        Question(
            "arch-03", "archaeology",
            "How many artifacts in the collection are made of Bronze?",
            "the excavated artifact collection",
            [c("artifacts", "seed"), c("bronze", "value")],
            ["artifacts"], _q3, design="both",
        ),
        Question(
            "arch-04", "archaeology",
            "What is the average mass in grams of artifacts from the Hellenistic period?",
            "the excavated artifact collection",
            [c("artifacts", "seed"), c("mass grams", "column"), c("hellenistic", "value")],
            ["artifacts"], _q4, design="seeker",
        ),
        Question(
            "arch-05", "archaeology",
            "What is the average phosphorus in ppm for field samples collected at "
            "sites with World Heritage protection status?",
            "soil chemistry and excavation sites",
            [c("phosphorus", "column"), c("sites", "seed"), c("world heritage", "value")],
            ["field_samples", "sites"], _q5, design="seeker",
        ),
        Question(
            "arch-06", "archaeology",
            "What is the median age BP across all radiocarbon dates?",
            "radiocarbon dating results",
            [c("radiocarbon", "seed"), c("age bp", "column")],
            ["radiocarbon_dates"], _q6, design="both",
        ),
        Question(
            "arch-07", "archaeology",
            "What is the ratio of the average insured value of Gold artifacts to the "
            "average insured value of Silver artifacts?",
            "the excavated artifact collection",
            [c("artifacts", "seed"), c("insured value", "column"), c("gold", "value")],
            ["artifacts"], _q7, design="none",
        ),
        Question(
            "arch-08", "archaeology",
            "In which calendar year did the excavation log record the largest total "
            "finds count across all sites?",
            "excavation activity logs",
            [c("excavation log", "seed"), c("finds count", "column")],
            ["excavation_log"], _q8, design="none",
        ),
        Question(
            "arch-09", "archaeology",
            "How much higher is the average soil pH at coastal sites than at inland sites?",
            "soil chemistry and excavation sites",
            [c("ph level", "column"), c("coastal", "value"), c("sites", "seed")],
            ["field_samples", "sites"], _q9, design="none",
        ),
        Question(
            "arch-10", "archaeology",
            "What percentage of radiocarbon dates carry a low quality flag?",
            "radiocarbon dating results",
            [c("radiocarbon", "seed"), c("quality flag", "column")],
            ["radiocarbon_dates"], _q10, design="none",
        ),
        Question(
            "arch-11", "archaeology",
            "How many sites yielded more than 100 artifacts?",
            "the excavated artifact collection",
            [c("artifacts", "seed"), c("sites", "seed")],
            ["artifacts", "sites"], _q11, design="none",
        ),
        Question(
            "arch-12", "archaeology",
            "What is the depth-weighted average moisture percentage across all field samples?",
            "soil chemistry from past excavation studies",
            [c("field samples", "seed"), c("moisture", "column"), c("depth", "column")],
            ["field_samples"], _q12, design="none",
        ),
    ]


def load_archaeology(scale: float = 1.0, seed: int = 7) -> BenchmarkDataset:
    """The archaeology benchmark: lake + 12 questions."""
    return BenchmarkDataset(
        name="archaeology",
        lake=build_archaeology_lake(scale, seed),
        questions=build_archaeology_questions(),
    )

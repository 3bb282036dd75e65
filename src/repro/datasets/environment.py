"""The environment lake: 36 tables, 20 questions (KramaBench analogue).

Shape matches the paper's Table 1 (36 tables, ~9,199 avg rows, 10 avg
columns): per-year air-quality and water-quality tables (2012-2023), ten
regional weather tables, and two dimension tables (stations, regions).
The per-year split makes cross-year questions genuinely multi-table, and
station attributes (name, operator, type, region) live only in the
``stations`` dimension — questions that filter on them require a join.
"""

from __future__ import annotations

import datetime
from typing import List

from ..core.convergence import Concept
from ..relational.catalog import Database
from ..relational.table import Table
from .generator import dates_between, make_rng, normal, pick, scaled, uniform_int, with_nulls
from .questions import BenchmarkDataset, Question, interp_first_last_avg

AIR_YEARS = list(range(2012, 2024))
WATER_YEARS = list(range(2012, 2024))
WEATHER_REGIONS = [
    "coastal", "inland", "highland", "valley", "desert",
    "forest", "urban", "rural", "island", "lakeside",
]
REGION_NAMES = [
    "Northern Highlands", "Coastal Strip", "Central Valley", "Eastern Forest",
    "Western Desert", "Lake District", "Urban Core", "Southern Plains",
    "Island Chain", "River Delta",
]
OPERATORS = ["National Observatory", "City Environment Agency", "River Authority"]
STATION_TYPES = ["marine", "coastal", "inland", "alpine"]


def _air_table(rng, year: int, n: int) -> Table:
    start = datetime.date(year, 1, 1)
    end = datetime.date(year, 12, 31)
    station_ids = uniform_int(rng, 1, 400, n)
    # The named stations (see _stations) always have readings, so join
    # questions are non-degenerate at every scale.
    station_ids[:3] = [1, 3, 2]
    return Table.from_columns(
        f"air_quality_{year}",
        {
            "station_id": station_ids,
            "reading_date": dates_between(rng, start, end, n),
            "pm25": with_nulls(rng, normal(rng, 18.0 + (year - 2012) * 0.4, 9.0, n, lo=0.5, hi=180, decimals=2), 0.06),
            "pm10": normal(rng, 32.0, 14.0, n, lo=1, hi=260),
            "ozone": with_nulls(rng, normal(rng, 48.0, 16.0, n, lo=2, hi=160), 0.05),
            "no2": normal(rng, 21.0, 8.0, n, lo=1, hi=120),
            "so2": normal(rng, 6.0, 3.0, n, lo=0.2, hi=60),
            "co": normal(rng, 0.6, 0.25, n, lo=0.05, hi=4, decimals=3),
            "temperature_c": normal(rng, 15.0, 9.0, n, lo=-20, hi=45),
            "humidity_pct": normal(rng, 62.0, 18.0, n, lo=5, hi=100),
        },
    )


def _water_table(rng, year: int, n: int) -> Table:
    start = datetime.date(year, 1, 1)
    end = datetime.date(year, 12, 31)
    dates = dates_between(rng, start, end, n)
    dissolved = with_nulls(rng, normal(rng, 8.2, 1.6, n, lo=0.5, hi=14, decimals=3), 0.08)
    nitrate = with_nulls(rng, normal(rng, 2.4, 1.1, n, lo=0.01, hi=12, decimals=3), 0.07)
    # Pin boundary dates with a missing measurement among them, so that
    # "linearly interpolated between samples" changes the answer: the filled
    # value (the mean of its neighbours) must differ from the raw boundary
    # mean, which the asymmetric max-date values guarantee.
    if n >= 4:
        dates[0], dates[1], dates[2] = start, start, start
        dates[3] = end
        dissolved[0], dissolved[1], dissolved[2], dissolved[3] = 8.5, None, 7.7, 9.9
        nitrate[0], nitrate[1], nitrate[2], nitrate[3] = 2.1, None, 3.3, 4.4
    station_ids = uniform_int(rng, 1, 400, n)
    station_ids[:3] = [1, 1, 3]
    return Table.from_columns(
        f"water_quality_{year}",
        {
            "station_id": station_ids,
            "sample_date": dates,
            "ph": normal(rng, 7.4, 0.5, n, lo=5, hi=9.5),
            "dissolved_oxygen": dissolved,
            "turbidity": normal(rng, 4.8, 2.2, n, lo=0.1, hi=30),
            "nitrate": nitrate,
            "phosphate": normal(rng, 0.35, 0.18, n, lo=0.005, hi=2.5, decimals=3),
            "lead_ppb": normal(rng, 2.8, 1.5, n, lo=0.05, hi=18, decimals=3),
            "ecoli_count": uniform_int(rng, 0, 900, n),
            "temperature_c": normal(rng, 13.0, 6.0, n, lo=0, hi=32),
        },
    )


def _weather_table(rng, region: str, n: int) -> Table:
    start = datetime.date(2012, 1, 1)
    end = datetime.date(2023, 12, 31)
    min_temp = normal(rng, 7.0, 8.0, n, lo=-30, hi=28)
    station_ids = uniform_int(rng, 1, 400, n)
    station_ids[:3] = [2, 2, 3]
    return Table.from_columns(
        f"weather_{region}",
        {
            "station_id": station_ids,
            "obs_date": dates_between(rng, start, end, n),
            "max_temperature": [round(t + abs(d), 2) for t, d in zip(min_temp, normal(rng, 9.0, 3.0, n))],
            "min_temperature": min_temp,
            "precipitation_mm": normal(rng, 3.1, 4.0, n, lo=0, hi=80),
            "wind_speed_kmh": normal(rng, 14.0, 7.0, n, lo=0, hi=110),
            "wind_direction": pick(rng, ["N", "NE", "E", "SE", "S", "SW", "W", "NW"], n),
            "pressure_hpa": normal(rng, 1013.0, 9.0, n, lo=950, hi=1060),
            "snow_cm": normal(rng, 0.4, 1.5, n, lo=0, hi=45),
            "visibility_km": normal(rng, 14.0, 6.0, n, lo=0.1, hi=40),
        },
    )


def _stations(rng, n: int = 400) -> Table:
    names = [f"Station {chr(65 + i % 26)}{i:03d}" for i in range(1, n + 1)]
    operators = pick(rng, OPERATORS, n)
    types = pick(rng, STATION_TYPES, n)
    regions = pick(rng, REGION_NAMES, n)
    # Fixed prefix rows: named stations the grounded questions refer to.
    names[0], operators[0], types[0], regions[0] = (
        "Harborview Station", "National Observatory", "marine", "Coastal Strip",
    )
    names[1], operators[1], types[1], regions[1] = (
        "Beacon Point", "City Environment Agency", "coastal", "Island Chain",
    )
    names[2], operators[2], types[2], regions[2] = (
        "Valley Gate", "National Observatory", "inland", "Northern Highlands",
    )
    return Table.from_columns(
        "stations",
        {
            "station_id": list(range(1, n + 1)),
            "station_name": names,
            "region": regions,
            "latitude": normal(rng, 45.0, 4.0, n, decimals=5),
            "longitude": normal(rng, 8.0, 6.0, n, decimals=5),
            "elevation_m": uniform_int(rng, 0, 2400, n),
            "operator": operators,
            "established_year": uniform_int(rng, 1950, 2018, n),
            "station_type": types,
            "active": pick(rng, [True, False], n, p=[0.9, 0.1]),
        },
    )


def _regions(rng) -> Table:
    n = 40
    names = [REGION_NAMES[i % len(REGION_NAMES)] + ("" if i < 10 else f" {i // 10}") for i in range(n)]
    return Table.from_columns(
        "regions",
        {
            "region_id": list(range(1, n + 1)),
            "region_name": names,
            "area_km2": uniform_int(rng, 200, 40000, n),
            "population_thousands": uniform_int(rng, 5, 4000, n),
            "coastal_flag": pick(rng, [True, False], n),
            "country": pick(rng, ["Atlantis", "Borduria", "Syldavia"], n),
            "climate_zone": pick(rng, ["temperate", "arid", "alpine", "mediterranean"], n),
            "protected_pct": normal(rng, 18.0, 9.0, n, lo=0, hi=80),
            "avg_elevation_m": uniform_int(rng, 5, 2600, n),
            "notes": pick(rng, ["", "seasonal flooding", "wildfire risk", "heavy industry"], n),
        },
    )


def build_environment_lake(scale: float = 1.0, seed: int = 21) -> Database:
    """Build the environment lake (paper shape at ``scale=1.0``)."""
    rng = make_rng(seed)
    lake = Database("environment")
    for year in AIR_YEARS:
        lake.register(_air_table(rng, year, scaled(12_000, scale)))
    for year in WATER_YEARS:
        lake.register(_water_table(rng, year, scaled(8_000, scale)))
    for i, region in enumerate(WEATHER_REGIONS):
        extra = 4 if i == 0 else 0  # tunes the Table 1 average to 9,199
        lake.register(_weather_table(rng, region, scaled(9_072 + extra, scale)))
    lake.register(_stations(rng))
    lake.register(_regions(rng))
    return lake


# ----------------------------------------------------------------------
# Reference implementations (ground truth)
# ----------------------------------------------------------------------


def _e01(lake):  # avg pm25 2019
    return lake.query_value("SELECT AVG(pm25) FROM air_quality_2019")


def _e02(lake):  # max ozone 2021
    return lake.query_value("SELECT MAX(ozone) FROM air_quality_2021")


def _e03(lake):  # median turbidity 2020
    return lake.query_value("SELECT MEDIAN(turbidity) FROM water_quality_2020")


def _e04(lake):  # min temperature at Beacon Point, coastal weather (join)
    return lake.query_value(
        "SELECT MIN(w.min_temperature) FROM weather_coastal w JOIN stations s "
        "ON w.station_id = s.station_id WHERE s.station_name = 'Beacon Point'"
    )


def _e05(lake):  # interpolated first/last dissolved oxygen 2016
    return interp_first_last_avg(lake, "water_quality_2016", "sample_date", "dissolved_oxygen", 4)


def _e06(lake):  # avg lead at Harborview Station 2018 (join)
    return lake.query_value(
        "SELECT AVG(w.lead_ppb) FROM water_quality_2018 w JOIN stations s "
        "ON w.station_id = s.station_id WHERE s.station_name = 'Harborview Station'"
    )


def _e07(lake):  # avg pm25 2020 at National Observatory stations (join)
    return lake.query_value(
        "SELECT AVG(a.pm25) FROM air_quality_2020 a JOIN stations s "
        "ON a.station_id = s.station_id WHERE s.operator = 'National Observatory'"
    )


def _e08(lake):  # max ecoli 2017 at marine stations (join)
    return lake.query_value(
        "SELECT MAX(w.ecoli_count) FROM water_quality_2017 w JOIN stations s "
        "ON w.station_id = s.station_id WHERE s.station_type = 'marine'"
    )


def _e09(lake):  # interpolated first/last nitrate 2014
    return interp_first_last_avg(lake, "water_quality_2014", "sample_date", "nitrate", 3)


def _e10(lake):  # stddev pm10 2013 in Northern Highlands (join)
    return lake.query_value(
        "SELECT STDDEV(a.pm10) FROM air_quality_2013 a JOIN stations s "
        "ON a.station_id = s.station_id WHERE s.region = 'Northern Highlands'"
    )


def _e11(lake):  # corr pm25/humidity 2022
    return lake.query_value("SELECT CORR(pm25, humidity_pct) FROM air_quality_2022")


def _e12(lake):  # avg pm25 2015..2020 (cross-year union)
    total, count = 0.0, 0
    for year in range(2015, 2021):
        t = lake.execute(f"SELECT SUM(pm25) AS s, COUNT(pm25) AS n FROM air_quality_{year}")
        s, n = t.rows[0]
        total += s or 0.0
        count += n
    return total / count


def _e13(lake):  # region with highest total precipitation 2019 (string!)
    best_region, best_total = None, None
    for region in WEATHER_REGIONS:
        total = lake.query_value(
            f"SELECT SUM(precipitation_mm) FROM weather_{region} "
            "WHERE YEAR(obs_date) = 2019"
        )
        if total is not None and (best_total is None or total > best_total):
            best_region, best_total = region, total
    return best_region


def _e14(lake):  # ratio nitrate 2012 / 2023
    a = lake.query_value("SELECT AVG(nitrate) FROM water_quality_2012")
    b = lake.query_value("SELECT AVG(nitrate) FROM water_quality_2023")
    return a / b


def _e15(lake):  # percentage of 2019 readings with pm25 > 35
    above = lake.query_value("SELECT COUNT(*) FROM air_quality_2019 WHERE pm25 > 35")
    total = lake.query_value("SELECT COUNT(pm25) FROM air_quality_2019")
    return 100.0 * above / total


def _e16(lake):  # population-weighted avg pm25 2021
    table = lake.execute(
        "SELECT SUM(x.avg_pm25 * x.pop) AS num, SUM(x.pop) AS den FROM ("
        "SELECT s.region AS region, AVG(a.pm25) AS avg_pm25, MAX(r.population_thousands) AS pop "
        "FROM air_quality_2021 a JOIN stations s ON a.station_id = s.station_id "
        "JOIN regions r ON s.region = r.region_name "
        "GROUP BY s.region) x"
    )
    num, den = table.rows[0]
    return num / den


def _e17(lake):  # change in avg ozone 2012 -> 2023
    a = lake.query_value("SELECT AVG(ozone) FROM air_quality_2012")
    b = lake.query_value("SELECT AVG(ozone) FROM air_quality_2023")
    return b - a


def _e18(lake):  # readings above 50 pm25 in 2020
    return lake.query_value("SELECT COUNT(*) FROM air_quality_2020 WHERE pm25 > 50")


def _e19(lake):  # avg DO 2015 when turbidity above median
    return lake.query_value(
        "SELECT AVG(dissolved_oxygen) FROM water_quality_2015 "
        "WHERE turbidity > (SELECT MEDIAN(turbidity) FROM water_quality_2015)"
    )


def _e20(lake):  # avg diurnal range inland
    return lake.query_value(
        "SELECT AVG(max_temperature - min_temperature) FROM weather_inland"
    )


def build_environment_questions() -> List[Question]:
    c = Concept
    return [
        Question(
            "env-01", "environment",
            "What is the average PM25 reading in the 2019 air quality data?",
            "air quality monitoring data",
            [c("air quality", "seed"), c("pm25", "column")],
            ["air_quality_2019"], _e01, design="both",
        ),
        Question(
            "env-02", "environment",
            "What was the maximum ozone level recorded in 2021?",
            "air quality monitoring data",
            [c("air quality", "seed"), c("ozone", "column")],
            ["air_quality_2021"], _e02, design="both",
        ),
        Question(
            "env-03", "environment",
            "What is the median turbidity of water samples collected in 2020?",
            "water quality sampling data",
            [c("water quality", "seed"), c("turbidity", "column")],
            ["water_quality_2020"], _e03, design="both",
        ),
        Question(
            "env-04", "environment",
            "What is the lowest minimum temperature recorded at the Beacon Point "
            "station in the coastal weather data?",
            "regional weather observations",
            [c("weather", "seed"), c("minimum temperature", "column"), c("beacon point", "value")],
            ["weather_coastal", "stations"], _e04, design="seeker",
        ),
        Question(
            "env-05", "environment",
            "What is the average dissolved oxygen from the first and last sampling "
            "dates recorded in 2016? Assume that dissolved oxygen is linearly "
            "interpolated between samples. Round your answer to 4 decimal places.",
            "water quality sampling data",
            [
                c("water quality", "seed"),
                c("dissolved oxygen", "column"),
                c("linearly interpolated", "operation"),
                c("first and last", "operation"),
            ],
            ["water_quality_2016"], _e05, design="seeker",
        ),
        Question(
            "env-06", "environment",
            "What is the average lead concentration in ppb measured at the "
            "Harborview Station in 2018?",
            "water quality sampling data",
            [c("water quality", "seed"), c("lead ppb", "column"), c("harborview station", "value")],
            ["water_quality_2018", "stations"], _e06, design="seeker",
        ),
        Question(
            "env-07", "environment",
            "What is the average PM25 in 2020 at stations operated by the National "
            "Observatory?",
            "air quality monitoring data",
            [c("air quality", "seed"), c("pm25", "column"), c("national observatory", "value")],
            ["air_quality_2020", "stations"], _e07, design="seeker",
        ),
        Question(
            "env-08", "environment",
            "What is the maximum ecoli count in 2017 water samples taken at stations "
            "of type marine?",
            "water quality sampling data",
            [c("water quality", "seed"), c("ecoli count", "column"), c("marine", "value")],
            ["water_quality_2017", "stations"], _e08, design="seeker",
        ),
        Question(
            "env-09", "environment",
            "What is the average nitrate level from the first and last sampling dates "
            "in 2014? Assume that nitrate is linearly interpolated between samples. "
            "Round your answer to 3 decimal places.",
            "water quality sampling data",
            [
                c("water quality", "seed"),
                c("nitrate", "column"),
                c("linearly interpolated", "operation"),
                c("first and last", "operation"),
            ],
            ["water_quality_2014"], _e09, design="seeker",
        ),
        Question(
            "env-10", "environment",
            "What is the standard deviation of PM10 readings in 2013 at stations in "
            "the Northern Highlands region?",
            "air quality monitoring data",
            [c("air quality", "seed"), c("pm10", "column"), c("northern highlands", "value")],
            ["air_quality_2013", "stations"], _e10, design="seeker",
        ),
        Question(
            "env-11", "environment",
            "What is the correlation between PM25 and humidity percentage in the 2022 "
            "air quality readings?",
            "air quality monitoring data",
            [c("air quality", "seed"), c("pm25", "column"), c("humidity", "column")],
            ["air_quality_2022"], _e11, design="both",
        ),
        Question(
            "env-12", "environment",
            "What is the average PM25 across the years 2015 through 2020?",
            "air quality monitoring data",
            [c("air quality", "seed"), c("pm25", "column")],
            [f"air_quality_{y}" for y in range(2015, 2021)], _e12, design="none",
        ),
        Question(
            "env-13", "environment",
            "Which region recorded the highest total precipitation in 2019 across the "
            "weather records?",
            "regional weather observations",
            [c("weather", "seed"), c("precipitation", "column")],
            [f"weather_{r}" for r in WEATHER_REGIONS], _e13, design="none",
        ),
        Question(
            "env-14", "environment",
            "What is the ratio of the average nitrate level in 2012 to the average "
            "nitrate level in 2023?",
            "water quality sampling data",
            [c("water quality", "seed"), c("nitrate", "column")],
            ["water_quality_2012", "water_quality_2023"], _e14, design="none",
        ),
        Question(
            "env-15", "environment",
            "What percentage of 2019 air quality readings exceeded a PM25 of 35?",
            "air quality monitoring data",
            [c("air quality", "seed"), c("pm25", "column")],
            ["air_quality_2019"], _e15, design="none",
        ),
        Question(
            "env-16", "environment",
            "What is the population-weighted average PM25 across regions in 2021?",
            "air quality monitoring data",
            [c("air quality", "seed"), c("pm25", "column"), c("population", "column")],
            ["air_quality_2021", "stations", "regions"], _e16, design="none",
        ),
        Question(
            "env-17", "environment",
            "By how much did the average ozone level change from 2012 to 2023?",
            "air quality monitoring data",
            [c("air quality", "seed"), c("ozone", "column")],
            ["air_quality_2012", "air_quality_2023"], _e17, design="none",
        ),
        Question(
            "env-18", "environment",
            "How many readings in the 2020 air quality data recorded a PM25 above 50?",
            "air quality monitoring data",
            [c("air quality", "seed"), c("pm25", "column")],
            ["air_quality_2020"], _e18, design="none",
        ),
        Question(
            "env-19", "environment",
            "What is the average dissolved oxygen in 2015 on samples where turbidity "
            "was above its median?",
            "water quality sampling data",
            [c("water quality", "seed"), c("dissolved oxygen", "column"), c("turbidity", "column")],
            ["water_quality_2015"], _e19, design="none",
        ),
        Question(
            "env-20", "environment",
            "What was the average diurnal temperature range, maximum minus minimum, in "
            "the inland weather records?",
            "regional weather observations",
            [c("weather", "seed"), c("temperature", "column")],
            ["weather_inland"], _e20, design="none",
        ),
    ]


def load_environment(scale: float = 1.0, seed: int = 21) -> BenchmarkDataset:
    """The environment benchmark: lake + 20 questions."""
    return BenchmarkDataset(
        name="environment",
        lake=build_environment_lake(scale, seed),
        questions=build_environment_questions(),
    )

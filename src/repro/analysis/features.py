"""Features of remote, local and hybrid IXP members (Section 6.2).

Having classified every member *interface*, the paper aggregates to member
*networks*: an AS is "remote" when all its inferred connections are remote,
"local" when all are local, and "hybrid" when it holds both kinds.  It then
compares the three groups by customer-cone size (CAIDA), self-reported
traffic level (PeeringDB), served user population (APNIC) and headquarters
country, and also reports how many facilities IXPs and ASes are present at
(Fig. 1a).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.analysis.ecdf import ECDF
from repro.core.types import InferenceReport
from repro.datasources.merge import ObservedDataset


@dataclass
class MemberFeatureAnalysis:
    """Aggregated member-level feature comparisons."""

    report: InferenceReport
    dataset: ObservedDataset

    # ------------------------------------------------------------------ #
    # Member-level classification
    # ------------------------------------------------------------------ #
    def member_classes(self) -> dict[int, str]:
        """ASN -> "local" / "remote" / "hybrid" for every inferred member."""
        asns = {result.asn for result in self.report.inferred()}
        return {asn: self.report.classification_of_as(asn) for asn in sorted(asns)}

    def class_shares(self) -> dict[str, float]:
        """Fraction of member networks per class."""
        classes = [c for c in self.member_classes().values() if c != "unknown"]
        if not classes:
            return {}
        counts = Counter(classes)
        return {label: counts.get(label, 0) / len(classes)
                for label in ("local", "remote", "hybrid")}

    # ------------------------------------------------------------------ #
    # Colocation footprints (Fig. 1a)
    # ------------------------------------------------------------------ #
    def facility_count_ecdf_for_ixps(self) -> ECDF:
        """ECDF of the number of facilities per IXP."""
        counts = [
            float(len(self.dataset.facilities_of_ixp(ixp_id)))
            for ixp_id in self.dataset.ixp_ids()
            if self.dataset.facilities_of_ixp(ixp_id)
        ]
        return ECDF.from_values(counts)

    def facility_count_ecdf_for_ases(self) -> ECDF:
        """ECDF of the number of facilities per AS (ASes with data only)."""
        counts = [
            float(len(facilities))
            for facilities in self.dataset.as_facilities.values()
            if facilities
        ]
        return ECDF.from_values(counts)

    # ------------------------------------------------------------------ #
    # Customer cones (Fig. 11a), traffic (Fig. 11b), populations, countries
    # ------------------------------------------------------------------ #
    def customer_cones_by_class(self) -> dict[str, list[int]]:
        """Customer-cone sizes grouped by member class."""
        result: dict[str, list[int]] = {"local": [], "remote": [], "hybrid": []}
        for asn, label in self.member_classes().items():
            if label not in result:
                continue
            result[label].append(self.dataset.customer_cone_sizes.get(asn, 1))
        return result

    def median_cone_by_class(self) -> dict[str, float]:
        """Median customer-cone size per member class."""
        medians: dict[str, float] = {}
        for label, cones in self.customer_cones_by_class().items():
            if cones:
                medians[label] = ECDF.from_values([float(c) for c in cones]).median
        return medians

    def mean_cone_by_class(self) -> dict[str, float]:
        """Mean customer-cone size per member class.

        The mean is dominated by the few very large networks, which is exactly
        the "hybrid members are large ISPs" signal of Section 6.2.
        """
        means: dict[str, float] = {}
        for label, cones in self.customer_cones_by_class().items():
            if cones:
                means[label] = sum(cones) / len(cones)
        return means

    def traffic_levels_by_class(self) -> dict[str, Counter]:
        """Distribution of self-reported traffic levels per member class."""
        result: dict[str, Counter] = {"local": Counter(), "remote": Counter(), "hybrid": Counter()}
        for asn, label in self.member_classes().items():
            if label not in result:
                continue
            level = self.dataset.traffic_levels.get(asn)
            if level is not None:
                result[label][level] += 1
        return result

    def median_traffic_rank_by_class(self) -> dict[str, float]:
        """Median traffic-bucket ordinal per member class."""
        medians: dict[str, float] = {}
        for label, counter in self.traffic_levels_by_class().items():
            values: list[float] = []
            for level, count in counter.items():
                values.extend([float(level.ordinal)] * count)
            if values:
                medians[label] = ECDF.from_values(values).median
        return medians

    def top_countries_by_class(self, top: int = 5) -> dict[str, list[tuple[str, float]]]:
        """Most common headquarters countries per member class (with shares)."""
        result: dict[str, list[tuple[str, float]]] = {}
        per_class: dict[str, Counter] = {"local": Counter(), "remote": Counter(),
                                         "hybrid": Counter()}
        for asn, label in self.member_classes().items():
            if label not in per_class:
                continue
            country = self.dataset.countries.get(asn)
            if country:
                per_class[label][country] += 1
        for label, counter in per_class.items():
            total = sum(counter.values())
            if total == 0:
                result[label] = []
                continue
            result[label] = [(country, count / total)
                             for country, count in counter.most_common(top)]
        return result

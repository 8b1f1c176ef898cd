#!/usr/bin/env python3
"""A crowdsourced measurement campaign through the MMLab server.

Reproduces the paper's Fig. 4 control loop at miniature scale: the
server enrols participants on each US carrier, pushes Type-I collection
patches (proactive scans at stops around the city) and one guided
Type-II drive, executes everything, and harvests the archive into
configuration samples and handoff instances — then runs a first-cut
diversity analysis on what came back.

Run:
    python examples/crowdsourced_campaign.py
"""

import numpy as np

from repro.core import MMLabServer
from repro.core.analysis.diversity import parameter_diversity
from repro.datasets.store import ConfigSampleStore
from repro.simulate import Speedtest, drive_scenario
from repro.simulate.mobility import waypoint_ring


def main() -> None:
    scenario = drive_scenario("indianapolis", seed=7)
    server = MMLabServer(scenario, seed=3)
    print("enrolling participants and pushing patches...")
    stops = waypoint_ring(scenario.cities[0], n=10)
    for carrier in ("A", "T", "V", "S"):
        participant = server.register(carrier)
        server.push_type1(participant, stops[:5], observed_day=100.0)
        server.push_type1(participant, stops[5:], observed_day=160.0)
    driver = server.register("A")
    trajectory = scenario.urban_trajectory(np.random.default_rng(2), duration_s=420.0)
    server.push_type2(driver, trajectory, Speedtest())

    executed = server.run_all_pending()
    print(f"executed {executed} patches; archive holds "
          f"{sum(len(log.log_bytes) for log in server.archive):,} bytes of logs")

    store = ConfigSampleStore(server.harvest_config_samples())
    print(f"harvested {len(store):,} configuration samples from "
          f"{len(store.unique_cells())} cells")
    for carrier in ("A", "T", "V", "S"):
        sub = store.for_carrier(carrier).for_rat("LTE")
        if not len(sub):
            continue
        priority = parameter_diversity(sub, "cell_reselection_priority")
        threshold = parameter_diversity(sub, "thresh_serving_low_p")
        print(f"  {carrier}: Ps diversity D={priority.simpson:.2f} "
              f"(richness {priority.richness}); "
              f"Theta_s_low D={threshold.simpson:.2f} "
              f"(richness {threshold.richness})")

    instances = server.harvest_handoff_instances()
    print(f"harvested {len(instances)} handoff instances from the guided drive")
    if instances:
        events = sorted({i.decisive_event for i in instances if i.decisive_event})
        print(f"  decisive events observed: {events}")


if __name__ == "__main__":
    main()

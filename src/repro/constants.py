"""Paper-level constants shared across the library.

All values trace to Section VI (Experimental Design) of Huang et al.,
"Large Scale Real-time Ridesharing with Service Guarantee on Road
Networks" (VLDB 2014).
"""

#: Constant driving speed assumed by the paper, in meters per second
#: ("approximately 48 kilometers/hour").
SPEED_MPS = 14.0

#: Default maximal waiting time ``w`` (Table I default: 10 minutes).
DEFAULT_WAIT_SECONDS = 10 * 60.0

#: Default service (detour) constraint ``epsilon`` (Table I default: 20%).
DEFAULT_DETOUR_EPSILON = 0.20

#: Default vehicle capacity for the four-algorithm comparison (Table I).
DEFAULT_CAPACITY_FOUR_ALGO = 4

#: Default vehicle capacity for the tree-variant comparison (Table II).
DEFAULT_CAPACITY_TREE = 6

#: Sentinel used for unlimited capacity runs (Fig. 9(c), "unlim").
UNLIMITED_CAPACITY = None

#: Rows held by the Dijkstra engine's LRU (the paper's Section VI cache).
#: A row is one source's full distance and predecessor arrays, so one
#: entry answers every distance and path from that source; the engine also
#: caps the rows by a cell budget, so fewer are held on large graphs.
DEFAULT_ROW_CACHE_SIZE = 4_096

#: Interval (seconds) at which vehicles report their location to the grid
#: index ("around 17,000 taxis update their locations every 20 to 60
#: seconds").
DEFAULT_LOCATION_REPORT_SECONDS = 30.0

#: Paper's Shanghai dataset summary statistics, used to calibrate the
#: synthetic workload (see ``repro.sim.workload``).
SHANGHAI_NUM_VERTICES = 122_319
SHANGHAI_NUM_EDGES = 188_426
SHANGHAI_NUM_TAXIS = 17_000
SHANGHAI_NUM_TRIPS = 432_327
SHANGHAI_DAY_SECONDS = 24 * 3600.0

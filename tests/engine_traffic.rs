//! Golden traffic of the PMEM-aware engine: every counted byte, op, fence
//! and page fault of the 13-query SSB flight, pinned as literals.
//!
//! The timing model prices exactly these numbers, so a change to the
//! access path (region accounting, fault model, Dash probe) that moves any
//! of them moves every priced result downstream. A faster access path must
//! pass this test unchanged. On a mismatch the failure message prints the
//! whole table as observed, in the literal form below.

use pmem_olap::ssb::{
    datagen, run_query, EngineMode, QueryId, QueryOutcome, SsbStore, StorageDevice,
};
use pmem_olap::store::TrackerSnapshot;

const SF: f64 = 0.005;
const SEED: u64 = 7;
const THREADS: u32 = 2;

/// One phase's tracker delta: seq/rand read bytes, seq/rand write bytes,
/// read ops, write ops, sfences, page faults.
type Phase = [u64; 8];

/// What one query of the flight counts.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    query: &'static str,
    /// tuples scanned, tuples selected, probes, agg updates, build inserts.
    counters: [u64; 5],
    build: Phase,
    probe: Phase,
    fact: Phase,
    intermediate: Phase,
    index_bytes: u64,
    index_bytes_by_dim: [u64; 4],
}

fn phase(s: &TrackerSnapshot) -> Phase {
    assert_eq!(
        (s.crashes, s.crash_lost_lines),
        (0, 0),
        "a query never crashes"
    );
    [
        s.seq_read_bytes,
        s.rand_read_bytes,
        s.seq_write_bytes,
        s.rand_write_bytes,
        s.read_ops,
        s.write_ops,
        s.sfences,
        s.page_faults,
    ]
}

fn observe(o: &QueryOutcome) -> Golden {
    let c = &o.counters;
    let t = &o.traffic;
    Golden {
        query: o.query.name(),
        counters: [
            c.tuples_scanned,
            c.tuples_selected,
            c.probes,
            c.agg_updates,
            c.build_inserts,
        ],
        build: phase(&t.build),
        probe: phase(&t.probe),
        fact: phase(&t.fact),
        intermediate: phase(&t.intermediate),
        index_bytes: t.index_bytes,
        index_bytes_by_dim: t.index_bytes_by_dim,
    }
}

/// `g` in the literal form of [`GOLDEN`].
fn literal(g: &Golden) -> String {
    format!(
        "    Golden {{\n        query: {:?},\n        counters: {:?},\n        build: {:?},\n        \
         probe: {:?},\n        fact: {:?},\n        intermediate: {:?},\n        index_bytes: {},\n        \
         index_bytes_by_dim: {:?},\n    }},\n",
        g.query,
        g.counters,
        g.build,
        g.probe,
        g.fact,
        g.intermediate,
        g.index_bytes,
        g.index_bytes_by_dim,
    )
}

#[test]
fn aware_fsdax_flight_traffic_is_pinned() {
    let data = datagen::generate(SF, SEED);
    let store =
        SsbStore::load(&data, SF, EngineMode::Aware, StorageDevice::PmemFsdax).expect("load");
    let observed: Vec<Golden> = QueryId::ALL
        .iter()
        .map(|&q| observe(&run_query(&store, q, THREADS).expect("query")))
        .collect();
    let table: String = observed.iter().map(literal).collect();
    assert_eq!(GOLDEN.len(), observed.len());
    for (g, o) in GOLDEN.iter().zip(&observed) {
        assert!(
            g == o,
            "{} traffic moved: expected\n{}observed\n{}whole flight as observed:\n{table}",
            g.query,
            literal(g),
            literal(o),
        );
    }
}

/// Captured from the engine before the lock-free access path landed.
const GOLDEN: [Golden; 13] = [
    Golden {
        query: "Q1.1",
        counters: [30000, 524, 3913, 524, 5114],
        build: [327296, 6551552, 0, 86974, 25602, 10234, 10234, 8],
        probe: [0, 1353728, 0, 0, 5288, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 16, 0, 0, 1, 1, 1],
        index_bytes: 139264,
        index_bytes_by_dim: [139264, 0, 0, 0],
    },
    Golden {
        query: "Q1.2",
        counters: [30000, 15, 1691, 15, 5114],
        build: [327296, 6551552, 0, 86974, 25602, 10234, 10234, 8],
        probe: [0, 585216, 0, 0, 2286, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 16, 0, 0, 1, 1, 1],
        index_bytes: 139264,
        index_bytes_by_dim: [139264, 0, 0, 0],
    },
    Golden {
        query: "Q1.3",
        counters: [30000, 4, 1679, 4, 5114],
        build: [327296, 6551552, 0, 86974, 25602, 10234, 10234, 8],
        probe: [0, 581632, 0, 0, 2272, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 16, 0, 0, 1, 1, 1],
        index_bytes: 139264,
        index_bytes_by_dim: [139264, 0, 0, 0],
    },
    Golden {
        query: "Q2.1",
        counters: [30000, 345, 31989, 345, 7154],
        build: [457856, 9162752, 0, 121654, 35808, 14314, 14314, 14],
        probe: [0, 10798080, 0, 0, 42180, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 2432, 0, 0, 1, 1, 1],
        index_bytes: 243712,
        index_bytes_by_dim: [139264, 0, 34816, 69632],
    },
    Golden {
        query: "Q2.2",
        counters: [30000, 38, 30235, 38, 7154],
        build: [457856, 9162752, 0, 121654, 35808, 14314, 14314, 14],
        probe: [0, 10264320, 0, 0, 40095, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 304, 0, 0, 1, 1, 1],
        index_bytes: 243712,
        index_bytes_by_dim: [139264, 0, 34816, 69632],
    },
    Golden {
        query: "Q2.3",
        counters: [30000, 0, 30000, 0, 7154],
        build: [457856, 9162752, 0, 121654, 35808, 14314, 14314, 14],
        probe: [0, 10193408, 0, 0, 39818, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 0, 0, 0, 0, 0, 0],
        index_bytes: 243712,
        index_bytes_by_dim: [139264, 0, 34816, 69632],
    },
    Golden {
        query: "Q3.1",
        counters: [30000, 1213, 37388, 1213, 5454],
        build: [349056, 6986752, 0, 92754, 27306, 10914, 10914, 12],
        probe: [0, 11291392, 0, 0, 44107, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 960, 0, 0, 1, 1, 1],
        index_bytes: 208896,
        index_bytes_by_dim: [139264, 34816, 34816, 0],
    },
    Golden {
        query: "Q3.2",
        counters: [30000, 124, 34669, 124, 5454],
        build: [349056, 6986752, 0, 92754, 27306, 10914, 10914, 12],
        probe: [0, 10371840, 0, 0, 40515, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 656, 0, 0, 1, 1, 1],
        index_bytes: 208896,
        index_bytes_by_dim: [139264, 34816, 34816, 0],
    },
    Golden {
        query: "Q3.3",
        counters: [30000, 9, 31546, 9, 5454],
        build: [349056, 6986752, 0, 92754, 27306, 10914, 10914, 12],
        probe: [0, 9335296, 0, 0, 36466, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 80, 0, 0, 1, 1, 1],
        index_bytes: 208896,
        index_bytes_by_dim: [139264, 34816, 34816, 0],
    },
    Golden {
        query: "Q3.4",
        counters: [30000, 0, 31546, 0, 5454],
        build: [349056, 6986752, 0, 92754, 27306, 10914, 10914, 12],
        probe: [0, 9335296, 0, 0, 36466, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 0, 0, 0, 0, 0, 0],
        index_bytes: 208896,
        index_bytes_by_dim: [139264, 34816, 34816, 0],
    },
    Golden {
        query: "Q4.1",
        counters: [30000, 365, 45168, 365, 7454],
        build: [477056, 9546752, 0, 126754, 37310, 14914, 14914, 16],
        probe: [0, 14775552, 0, 0, 57717, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 528, 0, 0, 1, 1, 1],
        index_bytes: 278528,
        index_bytes_by_dim: [139264, 34816, 34816, 69632],
    },
    Golden {
        query: "Q4.2",
        counters: [30000, 103, 45168, 103, 7454],
        build: [477056, 9546752, 0, 126754, 37310, 14914, 14914, 16],
        probe: [0, 14775552, 0, 0, 57717, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 544, 0, 0, 1, 1, 1],
        index_bytes: 278528,
        index_bytes_by_dim: [139264, 34816, 34816, 69632],
    },
    Golden {
        query: "Q4.3",
        counters: [30000, 8, 31332, 8, 7454],
        build: [477056, 9546752, 0, 126754, 37310, 14914, 14914, 16],
        probe: [0, 10589696, 0, 0, 41366, 0, 0, 0],
        fact: [3840000, 0, 0, 0, 60, 0, 0, 0],
        intermediate: [0, 0, 128, 0, 0, 1, 1, 1],
        index_bytes: 278528,
        index_bytes_by_dim: [139264, 34816, 34816, 69632],
    },
];

//! Reference anchor: test files count as references for the dead-pub
//! rule, so everything imported here stays off its radar — keeping the
//! planted `orphan_api`/`legacy_entry` findings the only two.

use pccs_bench::REQUIRED_METRICS;
use pccs_dram::cyc_a::entry;
use pccs_dram::seeded::{boom, stamp, undocumented_helper, waived};
use pccs_serve::planted::{planted_queue, publish, tidy};

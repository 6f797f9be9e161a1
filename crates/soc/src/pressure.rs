//! External memory-pressure generation.
//!
//! The paper creates external pressure by running bandwidth kernels on the
//! *other* PUs ("For the CPU model, we create the external pressure using
//! the GPU; for the GPU and DLA models, we create the external pressure
//! using the CPU", Section 4.1.1), and notes the source-obliviousness
//! insight: only the *amount* of external traffic matters, not its origin.
//!
//! [`pressure_streams`] turns a total demanded bandwidth into the stream
//! set the pressure-generating PU would present to the memory controller:
//! `pu.streams` rate-limited streaming sources, each demanding an equal
//! share, with the PU's per-stream window.
//!
//! [`pressure_streams`]: crate::pressure::pressure_streams

use crate::pu::PuConfig;
use pccs_dram::request::SourceId;
use pccs_dram::traffic::StreamTraffic;

/// Builds the traffic streams a PU generates when asked to demand
/// `total_gbps` of external bandwidth. Streams get source ids
/// `base_source ..`.
///
/// The demand is what the pressure kernel *requests*; the achieved pressure
/// can be lower under contention, exactly as on silicon ("The actual
/// external BW pressure is equal to or lower than the demand", §2.2).
pub fn pressure_streams(pu: &PuConfig, total_gbps: f64, base_source: usize) -> Vec<StreamTraffic> {
    pressure_streams_seeded(pu, total_gbps, base_source, 0)
}

/// Like [`pressure_streams`] with an extra seed perturbation for repeated
/// measurements.
pub fn pressure_streams_seeded(
    pu: &PuConfig,
    total_gbps: f64,
    base_source: usize,
    run_seed: u64,
) -> Vec<StreamTraffic> {
    assert!(total_gbps >= 0.0, "pressure demand must be non-negative");
    let streams = pu.streams.max(1);
    let per_stream = total_gbps / streams as f64;
    let window = (pu.mlp_window / streams).max(1);
    (0..streams)
        .map(|s| {
            StreamTraffic::builder(SourceId(base_source + s))
                .demand_gbps(per_stream)
                .row_locality(0.9)
                .write_fraction(0.3)
                .window(window)
                .seed(0xace1 ^ run_seed.wrapping_mul(0x9e3779b97f4a7c15) ^ (base_source + s) as u64)
                .build()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pccs_dram::traffic::TrafficSource;

    #[test]
    fn stream_count_matches_pu() {
        let cpu = PuConfig::xavier_cpu();
        let streams = pressure_streams(&cpu, 40.0, 5);
        assert_eq!(streams.len(), cpu.streams);
        assert_eq!(streams[0].source_id(), SourceId(5));
        assert_eq!(
            streams.last().unwrap().source_id(),
            SourceId(5 + cpu.streams - 1)
        );
    }

    #[test]
    fn demand_is_split_equally() {
        let cpu = PuConfig::xavier_cpu();
        let streams = pressure_streams(&cpu, 40.0, 0);
        for s in &streams {
            assert!((s.demand_gbps() - 40.0 / cpu.streams as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_pressure_is_allowed() {
        let dla = PuConfig::xavier_dla();
        let streams = pressure_streams(&dla, 0.0, 0);
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].demand_gbps(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_pressure_panics() {
        pressure_streams(&PuConfig::xavier_cpu(), -1.0, 0);
    }
}

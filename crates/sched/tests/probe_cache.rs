//! The shared probe cache of the scheduling and serving engines: a kernel's
//! key is its exact value, so equal kernels share one simulation and
//! distinct kernels never do.
//!
//! Each test counts the `sim.runs` co-run repetitions the probe starts.
//! That counter is process-global, so the tests of this file take turns.

use pccs_sched::engine::SimProbe;
use pccs_sched::policy::Probe;
use pccs_soc::corun::CoRunConfig;
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use pccs_telemetry::metrics;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Co-run repetitions `f` starts.
fn sim_runs(f: impl FnOnce()) -> u64 {
    let runs = metrics::counter("sim.runs");
    let before = runs.get();
    f();
    runs.get() - before
}

fn config() -> CoRunConfig {
    CoRunConfig::probe().with_horizon(4_000)
}

#[test]
fn clones_of_one_kernel_share_a_single_simulation() {
    let _turn = serial();
    let soc = SocConfig::xavier();
    let mut probe = SimProbe::new(&soc, config());
    let k = KernelDesc::memory_streaming("stream", 1.0);
    let first = sim_runs(|| {
        probe.standalone(1, &k);
        probe.corun_rates(&[(0, k.clone()), (1, k.clone())]);
    });
    assert!(first > 0, "a cold probe simulates");
    let again = sim_runs(|| {
        assert_eq!(probe.standalone(1, &k.clone()), probe.standalone(1, &k));
        let copy = k.clone();
        probe.corun_rates(&[(0, copy.clone()), (1, copy)]);
    });
    assert_eq!(again, 0, "equal kernels hit the cache");
}

#[test]
fn kernels_differing_past_the_old_format_precision_are_distinct() {
    let _turn = serial();
    let soc = SocConfig::xavier();
    let mut probe = SimProbe::new(&soc, config());
    let a = KernelDesc::memory_streaming("stream", 1.000001);
    let b = KernelDesc::memory_streaming("stream", 1.000002);
    let mut c = a.clone();
    c.row_locality += 1e-6;
    let one = sim_runs(|| {
        probe.standalone(1, &a);
    });
    for other in [&b, &c] {
        let runs = sim_runs(|| {
            probe.standalone(1, other);
        });
        assert_eq!(runs, one, "standalone of {other:?} must not alias");
        let runs = sim_runs(|| {
            probe.corun_rates(&[(1, a.clone()), (2, other.clone())]);
            probe.corun_rates(&[(1, other.clone()), (2, a.clone())]);
        });
        assert_eq!(runs, 2 * one, "co-runs with {other:?} must not alias");
    }
}

#[test]
fn corun_key_does_not_depend_on_placement_order() {
    let _turn = serial();
    let soc = SocConfig::xavier();
    let mut probe = SimProbe::new(&soc, config());
    let gpu = KernelDesc::memory_streaming("gpu", 0.5);
    let cpu = KernelDesc::memory_streaming("cpu", 4.0);
    let mut forward = Default::default();
    let cold = sim_runs(|| {
        forward = probe.corun_rates(&[(1, gpu.clone()), (0, cpu.clone())]);
    });
    assert!(cold > 0);
    let warm = sim_runs(|| {
        let backward = probe.corun_rates(&[(0, cpu.clone()), (1, gpu.clone())]);
        assert_eq!(backward, forward);
    });
    assert_eq!(warm, 0, "a permuted placement set hits the cache");
}

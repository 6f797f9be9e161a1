//! Synthetic traffic generators.
//!
//! These play the role of the paper's "calibrators": controllable memory
//! traffic generators with an adjustable bandwidth demand (Section 3.2).
//! A [`StreamTraffic`] source emits line-sized requests at a target rate,
//! with a configurable probability of staying within the current DRAM row
//! (row locality) and a bounded number of outstanding requests (memory-level
//! parallelism).
//!
//! [`StreamTraffic`]: crate::traffic::StreamTraffic

use crate::config::DramConfig;
use crate::controller::Completion;
use crate::request::{MemoryRequest, ReqKind, SourceId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Walks addresses within a private region as a sequence of sequential
/// runs separated by jumps to uniformly random lines.
///
/// The `row_locality` parameter maps to the mean run length
/// `64 × p / (1 − p)` lines, so `p = 0.92` yields ≈740-line sequential runs
/// (high row-buffer hit rate under channel interleaving) while `p = 0.4`
/// yields ≈43-line runs (poor locality, BFS-like). Jump targets are
/// uniform over the region — deliberately *not* row-aligned, so that
/// co-located sources spread across banks instead of aliasing onto bank 0
/// through power-of-two-aligned bases.
#[derive(Debug, Clone)]
pub struct AddressWalker {
    region_base: u64,
    region_lines: u64,
    line_bytes: u64,
    offset_lines: u64,
    run_left: u64,
    mean_run_lines: f64,
}

impl AddressWalker {
    /// Creates a walker over `[region_base, region_base + region_bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if the region holds fewer than two lines or `row_locality`
    /// is outside `[0, 1]`.
    pub fn new(region_base: u64, region_bytes: u64, line_bytes: u64, row_locality: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&row_locality),
            "locality must be a probability"
        );
        let region_lines = region_bytes / line_bytes;
        assert!(region_lines >= 2, "region must hold at least two lines");
        let mean_run_lines = if row_locality >= 1.0 {
            f64::INFINITY
        } else {
            (64.0 * row_locality / (1.0 - row_locality)).max(1.0)
        };
        Self {
            region_base,
            region_lines,
            line_bytes,
            offset_lines: 0,
            run_left: 0, // draw the first run (and starting line) on first use
            mean_run_lines,
        }
    }

    /// The next line address.
    pub fn next_addr(&mut self, rng: &mut SmallRng) -> u64 {
        if self.run_left == 0 {
            self.offset_lines = rng.gen_range(0..self.region_lines);
            self.run_left = self.draw_run(rng);
        }
        let addr = self.region_base + self.offset_lines * self.line_bytes;
        self.offset_lines = (self.offset_lines + 1) % self.region_lines;
        self.run_left = self.run_left.saturating_sub(1);
        addr
    }

    fn draw_run(&mut self, rng: &mut SmallRng) -> u64 {
        if self.mean_run_lines.is_infinite() {
            return u64::MAX;
        }
        // Exponentially distributed run length with the configured mean.
        let u: f64 = rng.gen_range(0.0..1.0);
        ((-(1.0 - u).ln()) * self.mean_run_lines).ceil().max(1.0) as u64
    }
}

/// A generator of memory requests driven by the simulation loop.
pub trait TrafficSource: fmt::Debug + Send {
    /// The id under which this source's requests are issued.
    fn source_id(&self) -> SourceId;

    /// Binds the generator to a memory geometry (converts GB/s demand into
    /// bytes per cycle, sizes address regions). Called once by
    /// [`DramSystem::add_generator`](crate::sim::DramSystem::add_generator).
    fn bind(&mut self, config: &DramConfig);

    /// Produces the next request to enqueue at `cycle`, if the source has
    /// both credit (demand rate) and window (outstanding cap) available.
    /// Called repeatedly within a cycle until it returns `None`.
    fn poll(&mut self, cycle: u64) -> Option<MemoryRequest>;

    /// Notification that a previously emitted request was rejected by a full
    /// controller queue; the source should retry it later.
    fn on_reject(&mut self, req: MemoryRequest);

    /// Notification that a request completed.
    fn on_complete(&mut self, completion: &Completion);

    /// Requests completed so far.
    fn completed(&self) -> u64;

    /// Requests emitted so far.
    fn issued(&self) -> u64;

    /// Units of forward progress made so far. For plain traffic generators
    /// this equals [`TrafficSource::completed`]; compute-coupled sources
    /// (processing units) report fully *processed* work instead, which is
    /// what slowdown measurements compare.
    fn progress(&self) -> u64 {
        self.completed()
    }
}

/// A rate-limited streaming traffic source.
///
/// Construct with [`StreamTraffic::builder`]. The source emits 64-byte line
/// requests at `demand_gbps`, walking addresses sequentially (which yields
/// high row locality under channel interleaving) and jumping to a random row
/// with probability `1 - row_locality` after each request.
#[derive(Debug)]
pub struct StreamTraffic {
    source: SourceId,
    demand_gbps: f64,
    row_locality: f64,
    write_fraction: f64,
    window: usize,
    region_bytes: u64,
    #[allow(dead_code)]
    seed: u64,

    rate_bytes_per_cycle: f64,
    line_bytes: u64,
    credit: f64,
    last_cycle: Option<u64>,
    outstanding: usize,
    issued: u64,
    completed: u64,
    walker: Option<AddressWalker>,
    retry: Option<MemoryRequest>,
    rng: SmallRng,
}

impl StreamTraffic {
    /// Starts building a stream for `source`.
    pub fn builder(source: SourceId) -> StreamTrafficBuilder {
        StreamTrafficBuilder {
            source,
            demand_gbps: 10.0,
            row_locality: 0.9,
            write_fraction: 0.0,
            window: 64,
            region_bytes: 256 << 20,
            seed: 0x9e37_79b9,
        }
    }

    /// The configured bandwidth demand in GB/s.
    pub fn demand_gbps(&self) -> f64 {
        self.demand_gbps
    }

    /// Requests currently in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }
}

/// Builder for [`StreamTraffic`] (see [`StreamTraffic::builder`]).
#[derive(Debug, Clone)]
pub struct StreamTrafficBuilder {
    source: SourceId,
    demand_gbps: f64,
    row_locality: f64,
    write_fraction: f64,
    window: usize,
    region_bytes: u64,
    seed: u64,
}

impl StreamTrafficBuilder {
    /// Target standalone bandwidth demand in GB/s.
    pub fn demand_gbps(mut self, gbps: f64) -> Self {
        assert!(gbps >= 0.0, "demand must be non-negative");
        self.demand_gbps = gbps;
        self
    }

    /// Probability of the next request staying in the current row region
    /// (0 = random rows every request, 1 = perfectly sequential).
    pub fn row_locality(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "locality must be a probability");
        self.row_locality = p;
        self
    }

    /// Fraction of requests that are writes.
    pub fn write_fraction(mut self, f: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&f),
            "write fraction must be a probability"
        );
        self.write_fraction = f;
        self
    }

    /// Maximum outstanding requests (memory-level parallelism).
    pub fn window(mut self, w: usize) -> Self {
        assert!(w > 0, "window must be positive");
        self.window = w;
        self
    }

    /// Size of this source's private address region in bytes.
    pub fn region_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes >= 1 << 20, "region must be at least 1 MiB");
        self.region_bytes = bytes;
        self
    }

    /// RNG seed, for reproducible runs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalizes the stream.
    pub fn build(self) -> StreamTraffic {
        StreamTraffic {
            source: self.source,
            demand_gbps: self.demand_gbps,
            row_locality: self.row_locality,
            write_fraction: self.write_fraction,
            window: self.window,
            region_bytes: self.region_bytes,
            seed: self.seed,
            rate_bytes_per_cycle: 0.0,
            line_bytes: 64,
            credit: 0.0,
            last_cycle: None,
            outstanding: 0,
            issued: 0,
            completed: 0,
            walker: None,
            retry: None,
            rng: SmallRng::seed_from_u64(
                self.seed ^ (self.source.0 as u64).wrapping_mul(0xa076_1d64_78bd_642f),
            ),
        }
    }
}

impl TrafficSource for StreamTraffic {
    fn source_id(&self) -> SourceId {
        self.source
    }

    fn bind(&mut self, config: &DramConfig) {
        self.rate_bytes_per_cycle = config.gbps_to_bytes_per_cycle(self.demand_gbps);
        self.line_bytes = u64::from(config.line_bytes);
        // Give each source a disjoint region so sources never share rows.
        let region_base = self.source.0 as u64 * self.region_bytes;
        self.walker = Some(AddressWalker::new(
            region_base,
            self.region_bytes,
            self.line_bytes,
            self.row_locality,
        ));
    }

    fn poll(&mut self, cycle: u64) -> Option<MemoryRequest> {
        if let Some(req) = self.retry.take() {
            return Some(req);
        }
        if self.last_cycle != Some(cycle) {
            self.last_cycle = Some(cycle);
            self.credit = (self.credit + self.rate_bytes_per_cycle)
                .min(self.rate_bytes_per_cycle * 64.0 + self.line_bytes as f64);
        }
        if self.credit < self.line_bytes as f64 || self.outstanding >= self.window {
            return None;
        }
        self.credit -= self.line_bytes as f64;
        self.outstanding += 1;

        let addr = self
            .walker
            .as_mut()
            // Lifecycle contract: `add_generator` always binds before the
            // first poll; returning None here would silently mask a misuse.
            .expect("bind must be called before poll") // pccs-lint: allow(hot-path-panic)
            .next_addr(&mut self.rng);

        let id = self.issued;
        self.issued += 1;
        let kind = if self.write_fraction > 0.0 && self.rng.gen_bool(self.write_fraction) {
            ReqKind::Write
        } else {
            ReqKind::Read
        };
        let mut req = MemoryRequest::read(id, self.source, addr, cycle);
        req.kind = kind;
        req.bytes = self.line_bytes as u32;
        Some(req)
    }

    fn on_reject(&mut self, req: MemoryRequest) {
        // Hold the request and retry next poll; outstanding stays counted.
        self.retry = Some(req);
    }

    fn on_complete(&mut self, _completion: &Completion) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.completed += 1;
    }

    fn completed(&self) -> u64 {
        self.completed
    }

    fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(demand: f64) -> StreamTraffic {
        let mut s = StreamTraffic::builder(SourceId(0))
            .demand_gbps(demand)
            .build();
        s.bind(&DramConfig::cmp_study());
        s
    }

    #[test]
    fn rate_limiting_matches_demand() {
        // 25.6 GB/s on a 1600 MHz clock = 16 B/cycle = one 64 B line per 4
        // cycles.
        let mut s = bound(25.6);
        let mut emitted = 0;
        for cycle in 0..400 {
            while let Some(req) = s.poll(cycle) {
                emitted += 1;
                s.on_complete(&Completion {
                    request_id: req.id,
                    source: req.source,
                    finish: cycle,
                });
            }
        }
        // 400 cycles * 16 B = 6400 B = 100 lines.
        assert!((95..=101).contains(&emitted), "emitted {emitted}");
    }

    #[test]
    fn window_caps_outstanding() {
        let mut s = StreamTraffic::builder(SourceId(0))
            .demand_gbps(1000.0)
            .window(4)
            .build();
        s.bind(&DramConfig::cmp_study());
        let mut got = 0;
        for _ in 0..100 {
            if s.poll(0).is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 4);
        assert_eq!(s.outstanding(), 4);
    }

    #[test]
    fn rejected_request_is_retried() {
        let mut s = bound(100.0);
        // Advance cycles until the credit admits a request (credit only
        // refills when the cycle advances).
        let (cycle, req) = (0..100)
            .find_map(|c| s.poll(c).map(|r| (c, r)))
            .expect("credit accumulates within 100 cycles");
        s.on_reject(req);
        let retried = s.poll(cycle + 1).expect("retry should surface first");
        assert_eq!(retried.id, req.id);
        assert_eq!(retried.addr, req.addr);
    }

    #[test]
    fn sequential_locality_walks_lines() {
        let mut s = StreamTraffic::builder(SourceId(0))
            .demand_gbps(1000.0)
            .row_locality(1.0)
            .window(1024)
            .build();
        s.bind(&DramConfig::cmp_study());
        let a = s.poll(0).unwrap().addr;
        let b = s.poll(0).unwrap().addr;
        assert_eq!(b - a, 64);
    }

    #[test]
    fn random_locality_jumps_rows() {
        let mut s = StreamTraffic::builder(SourceId(0))
            .demand_gbps(1000.0)
            .row_locality(0.0)
            .window(1024)
            .seed(7)
            .build();
        s.bind(&DramConfig::cmp_study());
        let addrs: Vec<u64> = (0..40u64)
            .filter_map(|c| s.poll(c))
            .map(|r| r.addr)
            .collect();
        assert!(addrs.len() >= 20, "enough requests emitted");
        let distinct: std::collections::HashSet<_> = addrs.iter().collect();
        assert!(distinct.len() > 10, "random walk should spread addresses");
    }

    #[test]
    fn sources_get_disjoint_regions() {
        let c = DramConfig::cmp_study();
        let region: u64 = 256 << 20;
        let mut a = StreamTraffic::builder(SourceId(0))
            .demand_gbps(200.0)
            .build();
        let mut b = StreamTraffic::builder(SourceId(1))
            .demand_gbps(200.0)
            .build();
        a.bind(&c);
        b.bind(&c);
        let ra = a.poll(0).unwrap().addr;
        let rb = b.poll(0).unwrap().addr;
        assert!(ra < region, "source 0 stays in its region");
        assert!(
            (region..2 * region).contains(&rb),
            "source 1 stays in its region"
        );
    }

    #[test]
    fn zero_demand_emits_nothing() {
        let mut s = bound(0.0);
        for cycle in 0..1000 {
            assert!(s.poll(cycle).is_none());
        }
    }

    #[test]
    fn write_fraction_produces_writes() {
        let mut s = StreamTraffic::builder(SourceId(0))
            .demand_gbps(1000.0)
            .write_fraction(0.5)
            .window(4096)
            .seed(3)
            .build();
        s.bind(&DramConfig::cmp_study());
        let mut reads = 0;
        let mut writes = 0;
        for _ in 0..200 {
            if let Some(r) = s.poll(0) {
                match r.kind {
                    ReqKind::Read => reads += 1,
                    ReqKind::Write => writes += 1,
                }
            }
        }
        assert!(reads > 0 && writes > 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn builder_rejects_bad_locality() {
        let _ = StreamTraffic::builder(SourceId(0)).row_locality(1.5);
    }
}

//! Memory-controller scheduling policies (Table 2 of the paper).
//!
//! Five policies are implemented:
//!
//! | Policy | Fairness control | Reference |
//! |---|---|---|
//! | [`Fcfs`] | none | — |
//! | [`FrFcfs`] | none | Rixner et al., ISCA'00 |
//! | [`Atlas`] | least-attained-service ranking | Kim et al., HPCA'10 |
//! | [`Tcm`] | latency/bandwidth clustering + rank shuffle | Kim et al., MICRO'10 |
//! | [`Sms`] | batch formation + probabilistic shortest-first | Ausavarungnirun et al., ISCA'12 |
//!
//! Each policy orders, once per scheduling opportunity, the *issuable*
//! requests of a channel (requests whose bank gates let them issue) by
//! handing the controller a [`Ranking`]; the controller issues the
//! smallest-ranked one. Policies keep their own per-source state (attained
//! service, intensity, cluster membership) and are notified of
//! enqueue/serve events by the controller. Source ids are small dense
//! integers, so that state lives in tables indexed by `SourceId.0`; an id
//! past a table's end reads as a source the policy has never seen.
//!
//! [`Fcfs`]: crate::policy::Fcfs
//! [`FrFcfs`]: crate::policy::FrFcfs
//! [`Atlas`]: crate::policy::Atlas
//! [`Tcm`]: crate::policy::Tcm
//! [`Sms`]: crate::policy::Sms
//! [`Ranking`]: crate::policy::Ranking

use crate::request::SourceId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a policy orders the issuable requests of a channel at one
/// scheduling opportunity. The controller issues the request with the
/// smallest key
///
/// `(class, row miss, arrival, queue_idx)`
///
/// where a request waiting longer than `starvation_age` has class 0 and
/// counts no row miss (so over-age requests go first, oldest first), every
/// other request has class `1 + classes[source]`, and a row miss counts
/// only when `row_hits_first`. `queue_idx` is the request's index in the
/// channel queue, so `(arrival, queue_idx)` is unique and the pick does not
/// depend on the order the controller visits requests in.
#[derive(Debug, Clone, Copy)]
pub struct Ranking<'a> {
    /// Class per source, indexed by `SourceId.0`; lower goes first.
    pub classes: &'a [u32],
    /// Class of a source past the end of `classes`.
    pub unlisted: u32,
    /// Whether a row hit goes before a row miss of the same class.
    pub row_hits_first: bool,
    /// Requests older than this many cycles go before every other request.
    pub starvation_age: Option<u64>,
    /// Whether `classes` depends on which sources have an issuable request:
    /// the controller then calls [`SchedulingPolicy::pick_target`] before it
    /// reads the ranking for its pick.
    pub picks_target: bool,
}

/// A request's rank under a [`Ranking`]: `(not over-age, class, row miss,
/// arrival, queue_idx)`, packed from the top bit down into 1, 32, 1, 64 and
/// 30 bits so that one integer comparison orders two requests. The
/// smallest key is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct RankKey(u128);

impl RankKey {
    /// Bits of the queue index: a channel queue holds fewer requests.
    pub(crate) const QUEUE_BITS: u32 = 30;
    const CLASS_SHIFT: u32 = 95;
    /// Above every key of a request (its queue index would need all 30
    /// bits set): the minimum of an empty set.
    pub(crate) const NONE: RankKey = RankKey(u128::MAX);

    /// The queue index of the ranked request.
    pub(crate) fn queue_idx(self) -> usize {
        (self.0 & ((1 << Self::QUEUE_BITS) - 1)) as usize
    }

    /// The same request's key with its source in `class` (an over-age
    /// request has no class).
    pub(crate) fn with_class(self, class: u32) -> RankKey {
        if self.0 >> 127 == 0 {
            return self;
        }
        let mask = u128::from(u32::MAX) << Self::CLASS_SHIFT;
        RankKey(self.0 & !mask | u128::from(class) << Self::CLASS_SHIFT)
    }
}

impl Ranking<'_> {
    /// Requests that arrived before the returned cycle are over-age at
    /// `cycle`.
    pub(crate) fn starved_before(&self, cycle: u64) -> u64 {
        self.starvation_age
            .map_or(0, |age| cycle.saturating_sub(age))
    }

    /// The class of `source`.
    #[inline]
    pub(crate) fn class(&self, source: SourceId) -> u32 {
        self.classes.get(source.0).copied().unwrap_or(self.unlisted)
    }

    /// The key of one request; `starved_before` is
    /// [`Ranking::starved_before`] of the current cycle.
    #[inline]
    pub(crate) fn key(
        &self,
        source: SourceId,
        row_hit: bool,
        arrival: u64,
        queue_idx: u32,
        starved_before: u64,
    ) -> RankKey {
        let tail = u128::from(arrival) << RankKey::QUEUE_BITS | u128::from(queue_idx);
        if arrival < starved_before {
            RankKey(tail)
        } else {
            let miss = self.row_hits_first && !row_hit;
            RankKey(
                1 << 127
                    | u128::from(self.class(source)) << RankKey::CLASS_SHIFT
                    | u128::from(miss) << 94
                    | tail,
            )
        }
    }
}

/// A memory-request scheduling discipline.
///
/// A policy does not see the candidate requests. It hands the controller a
/// [`Ranking`] instead, and the controller issues the smallest-ranked
/// issuable request in the same pass that applies the bank gates. This
/// trait is sealed in spirit: the controller only exercises the
/// implementations in this module, but it is left open so experiments can
/// plug in custom disciplines (e.g. for ablations).
pub trait SchedulingPolicy: fmt::Debug + Send {
    /// Human-readable policy name (matches the paper's Table 2 labels).
    fn name(&self) -> &'static str;

    /// How this opportunity's issuable requests are ordered.
    fn ranking(&self) -> Ranking<'_>;

    /// Picks this opportunity's target among `issuable`, the distinct
    /// sources with an issuable request in ascending id order, given the
    /// controller-wide queued requests per source (indexed by `SourceId.0`;
    /// ids past the end have none). Called only when the ranking
    /// [`picks_target`](Ranking::picks_target), and only on opportunities
    /// with at least one issuable request, so `issuable` is never empty.
    fn pick_target(&mut self, _issuable: &[SourceId], _pending_per_source: &[usize]) {}

    /// Notification: a request from `source` entered the queue.
    fn on_enqueue(&mut self, _source: SourceId) {}

    /// Notification: `bytes` of service were delivered to `source`.
    fn on_served(&mut self, _source: SourceId, _bytes: u64) {}

    /// Called once per controller cycle for epoch/quantum maintenance.
    fn on_cycle(&mut self, _cycle: u64) {}

    /// Whether the controller may shield an open row from closure while
    /// row-hit requests for it are still queued (open-page awareness).
    /// All realistic schedulers respect open rows; plain FCFS — by
    /// definition locality-oblivious — overrides this to `false`.
    fn respects_open_rows(&self) -> bool {
        true
    }
}

/// Enumerates the built-in policies; convenient for sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// First-come-first-serve.
    Fcfs,
    /// First-ready FCFS (row-hit first).
    FrFcfs,
    /// Adaptive per-thread least-attained-service.
    Atlas,
    /// Thread cluster memory scheduling.
    Tcm,
    /// Staged memory scheduling.
    Sms,
}

impl PolicyKind {
    /// All five policies in the paper's order.
    pub fn all() -> [PolicyKind; 5] {
        [
            PolicyKind::Fcfs,
            PolicyKind::FrFcfs,
            PolicyKind::Atlas,
            PolicyKind::Tcm,
            PolicyKind::Sms,
        ]
    }

    /// The three policies with fairness control.
    pub fn fairness_aware() -> [PolicyKind; 3] {
        [PolicyKind::Atlas, PolicyKind::Tcm, PolicyKind::Sms]
    }

    /// Display label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::FrFcfs => "FR-FCFS",
            PolicyKind::Atlas => "ATLAS",
            PolicyKind::Tcm => "TCM",
            PolicyKind::Sms => "SMS",
        }
    }

    /// Whether the policy employs fairness control.
    pub fn has_fairness_control(&self) -> bool {
        matches!(self, PolicyKind::Atlas | PolicyKind::Tcm | PolicyKind::Sms)
    }

    /// Builds a fresh policy instance with its default parameters.
    pub fn instantiate(&self) -> Box<dyn SchedulingPolicy> {
        match self {
            PolicyKind::Fcfs => Box::new(Fcfs::new()),
            PolicyKind::FrFcfs => Box::new(FrFcfs::new()),
            PolicyKind::Atlas => Box::new(Atlas::default()),
            PolicyKind::Tcm => Box::new(Tcm::default()),
            PolicyKind::Sms => Box::new(Sms::default()),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// First-come-first-serve: requests are served strictly in arrival order
/// with no locality awareness.
///
/// As the paper observes (Fig. 5a, Table 3), FCFS suffers low row-buffer hit
/// rates under co-location because interleaved sources destroy row locality.
#[derive(Debug, Clone, Default)]
pub struct Fcfs;

impl Fcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        Fcfs
    }
}

impl SchedulingPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn ranking(&self) -> Ranking<'_> {
        Ranking {
            classes: &[],
            unlisted: 0,
            row_hits_first: false,
            starvation_age: None,
            picks_target: false,
        }
    }

    fn respects_open_rows(&self) -> bool {
        false
    }
}

/// First-ready FCFS: row-hit requests first, then oldest (Rixner et al.).
///
/// Maximizes row-buffer hit rate and total bandwidth but has no fairness
/// control; memory-intensive streams can hog bandwidth (Fig. 5b).
#[derive(Debug, Clone, Default)]
pub struct FrFcfs;

impl FrFcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        FrFcfs
    }
}

impl SchedulingPolicy for FrFcfs {
    fn name(&self) -> &'static str {
        "FR-FCFS"
    }

    fn ranking(&self) -> Ranking<'_> {
        Ranking {
            classes: &[],
            unlisted: 0,
            row_hits_first: true,
            starvation_age: None,
            picks_target: false,
        }
    }
}

/// ATLAS: Adaptive per-Thread Least-Attained-Service (Kim et al., HPCA'10).
///
/// Prioritization order (Table 2): (1) requests waiting beyond the
/// starvation threshold, (2) requests from the source with least attained
/// service, (3) row-hit requests, (4) oldest requests. Attained service is
/// accumulated per quantum and aged with an exponential moving average.
#[derive(Debug, Clone)]
pub struct Atlas {
    /// Starvation threshold in cycles; older requests jump the ranking.
    pub threshold_cycles: u64,
    /// Quantum length in cycles between long-term service aging.
    pub quantum_cycles: u64,
    /// Epoch length in cycles between rank recomputations. Ranks are held
    /// *fixed* within an epoch — the original proposal's rank stability —
    /// which lets the prioritized source stream row hits instead of the
    /// scheduler round-robining every request (and destroying locality).
    pub epoch_cycles: u64,
    /// EMA weight on history at quantum boundaries (ATLAS's alpha).
    pub alpha: f64,
    /// `(current quantum, long-term total)` attained service per source,
    /// `None` for ids never seen.
    service: Vec<Option<(f64, f64)>>,
    /// This epoch's rank per source; sources first seen after the last
    /// recomputation (or past the end) rank 0.
    rank: Vec<u32>,
    next_quantum: u64,
    next_epoch: u64,
}

impl Atlas {
    /// Creates ATLAS with explicit parameters.
    pub fn new(threshold_cycles: u64, quantum_cycles: u64, epoch_cycles: u64, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        assert!(epoch_cycles > 0, "epoch must be positive");
        Self {
            threshold_cycles,
            quantum_cycles,
            epoch_cycles,
            alpha,
            service: Vec::new(),
            rank: Vec::new(),
            next_quantum: quantum_cycles,
            next_epoch: 0,
        }
    }

    /// Long-term attained service of a source (for tests/inspection).
    pub fn attained_service(&self, source: SourceId) -> f64 {
        match self.service.get(source.0) {
            Some(&Some((current, total))) => total + current,
            _ => 0.0,
        }
    }

    /// Rank of a source at the current epoch (0 = highest priority);
    /// unknown sources get top priority, as in the original (new threads
    /// have attained no service yet).
    #[cfg(test)]
    fn rank_of(&self, source: SourceId) -> u32 {
        self.rank.get(source.0).copied().unwrap_or(0)
    }

    fn recompute_ranks(&mut self) {
        let mut by_service: Vec<(SourceId, f64)> = self
            .service
            .iter()
            .enumerate()
            .filter_map(|(s, entry)| entry.map(|(current, total)| (SourceId(s), total + current)))
            .collect();
        by_service.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        self.rank.clear();
        self.rank.resize(self.service.len(), 0);
        for (r, (s, _)) in by_service.into_iter().enumerate() {
            self.rank[s.0] = r as u32;
        }
    }

    /// The service entry of `source`, created (zeroed) on first sight.
    fn service_of(&mut self, source: SourceId) -> &mut (f64, f64) {
        source
            .slot(&mut self.service, None)
            .get_or_insert((0.0, 0.0))
    }
}

impl Default for Atlas {
    fn default() -> Self {
        // Quanta/epochs are scaled to the short horizons of the study (the
        // original proposal uses ~10M-cycle quanta on full applications).
        // The starvation threshold is the rule that keeps least-attained-
        // service prioritization from starving a heavier victim outright;
        // at queue latencies of a few hundred cycles, ~2.5k cycles bounds
        // any request's wait without degrading to FCFS.
        Self::new(2_500, 10_000, 1_500, 0.875)
    }
}

impl SchedulingPolicy for Atlas {
    fn name(&self) -> &'static str {
        "ATLAS"
    }

    fn ranking(&self) -> Ranking<'_> {
        // (1) Over-threshold requests, oldest first; otherwise (2) the
        // best-ranked (least-attained-service) source — ranks are fixed
        // within the epoch — then (3) row hit, (4) oldest.
        Ranking {
            classes: &self.rank,
            unlisted: 0,
            row_hits_first: true,
            starvation_age: Some(self.threshold_cycles),
            picks_target: false,
        }
    }

    fn on_enqueue(&mut self, source: SourceId) {
        self.service_of(source);
    }

    fn on_served(&mut self, source: SourceId, bytes: u64) {
        self.service_of(source).0 += bytes as f64;
    }

    fn on_cycle(&mut self, cycle: u64) {
        if cycle >= self.next_epoch {
            self.recompute_ranks();
            self.next_epoch = cycle + self.epoch_cycles;
        }
        if cycle >= self.next_quantum {
            for (cur, total) in self.service.iter_mut().flatten() {
                *total = self.alpha * *total + (1.0 - self.alpha) * *cur;
                *cur = 0.0;
            }
            self.next_quantum = cycle + self.quantum_cycles;
        }
    }
}

/// TCM: Thread Cluster Memory scheduling (Kim et al., MICRO'10).
///
/// Each quantum, sources are split by memory intensity into a
/// latency-sensitive cluster (prioritized) and a bandwidth-sensitive cluster
/// whose internal ranking is shuffled periodically to spread slowdown
/// fairly. Prioritization (Table 2): (1) non-memory-intensive sources,
/// (2) shuffled rank among intensive sources, (3) row hit, (4) oldest.
#[derive(Debug)]
pub struct Tcm {
    /// Quantum length in cycles between cluster re-formation.
    pub quantum_cycles: u64,
    /// Rank-shuffle period in cycles.
    pub shuffle_cycles: u64,
    /// Fraction of total attained bandwidth allowed into the
    /// latency-sensitive cluster (the original ClusterThresh, default 4/24).
    pub cluster_thresh: f64,
    /// Requests served this quantum per source, `None` for ids never seen.
    served_current: Vec<Option<u64>>,
    /// The bandwidth-sensitive cluster in (shuffled) rank order.
    bw_rank: Vec<SourceId>,
    /// Per-source priority class ([`Tcm::LATENCY`], or
    /// [`Tcm::bandwidth_class`] of the source's rank), rebuilt on every
    /// re-clustering and shuffle. Sources clustered nowhere yet (or past the
    /// end) read [`Tcm::UNCLUSTERED`].
    class: Vec<u32>,
    next_quantum: u64,
    next_shuffle: u64,
    rng: SmallRng,
}

impl Tcm {
    /// Creates TCM with explicit parameters; `seed` fixes the shuffle order
    /// for reproducibility.
    pub fn new(quantum_cycles: u64, shuffle_cycles: u64, cluster_thresh: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&cluster_thresh),
            "cluster threshold must be a fraction"
        );
        Self {
            quantum_cycles,
            shuffle_cycles,
            cluster_thresh,
            served_current: Vec::new(),
            bw_rank: Vec::new(),
            class: Vec::new(),
            next_quantum: quantum_cycles,
            next_shuffle: shuffle_cycles,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Class of a source in neither cluster: behind every ranked source.
    const UNCLUSTERED: u32 = u32::MAX;
    /// Class of a latency-sensitive source: ahead of the bandwidth cluster.
    const LATENCY: u32 = 0;

    /// Class of the bandwidth-cluster source of rank `rank`: behind the
    /// latency-sensitive cluster, ahead of unclustered sources.
    fn bandwidth_class(rank: usize) -> u32 {
        rank as u32 + 1
    }

    #[cfg(test)]
    fn class_of(&self, source: SourceId) -> u32 {
        self.class
            .get(source.0)
            .copied()
            .unwrap_or(Self::UNCLUSTERED)
    }

    fn reform_clusters(&mut self) {
        let total: u64 = self.served_current.iter().flatten().sum();
        let mut by_intensity: Vec<(SourceId, u64)> = self
            .served_current
            .iter()
            .enumerate()
            .filter_map(|(s, v)| v.map(|v| (SourceId(s), v)))
            .collect();
        by_intensity.sort_by_key(|&(s, v)| (v, s));
        self.bw_rank.clear();
        self.class.clear();
        self.class
            .resize(self.served_current.len(), Self::UNCLUSTERED);
        let budget = (total as f64 * self.cluster_thresh) as u64;
        let mut used = 0u64;
        for (src, v) in by_intensity {
            if used + v <= budget {
                used += v;
                self.class[src.0] = Self::LATENCY;
            } else {
                self.bw_rank.push(src);
            }
        }
        self.rank_bandwidth_cluster();
        self.served_current
            .iter_mut()
            .flatten()
            .for_each(|v| *v = 0);
    }

    fn shuffle_ranks(&mut self) {
        // Fisher–Yates over the bandwidth cluster.
        for i in (1..self.bw_rank.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            self.bw_rank.swap(i, j);
        }
        self.rank_bandwidth_cluster();
    }

    /// Writes the bandwidth cluster's current order into the class table.
    fn rank_bandwidth_cluster(&mut self) {
        for (rank, src) in self.bw_rank.iter().enumerate() {
            self.class[src.0] = Self::bandwidth_class(rank);
        }
    }
}

impl Default for Tcm {
    fn default() -> Self {
        // Quantum/shuffle periods scaled to the short horizons of this
        // study (the original proposal re-clusters every ~1M cycles on full
        // applications); clusters must re-form several times per run.
        Self::new(8_000, 2_000, 4.0 / 24.0, 0x7c3)
    }
}

impl SchedulingPolicy for Tcm {
    fn name(&self) -> &'static str {
        "TCM"
    }

    fn ranking(&self) -> Ranking<'_> {
        // (1) Latency-sensitive cluster first, else (2) the highest-ranked
        // bandwidth-cluster source; then (3) row hit, (4) oldest.
        Ranking {
            classes: &self.class,
            unlisted: Self::UNCLUSTERED,
            row_hits_first: true,
            starvation_age: None,
            picks_target: false,
        }
    }

    fn on_enqueue(&mut self, source: SourceId) {
        // Ensure newly seen sources participate in the next clustering.
        source.slot(&mut self.served_current, None).get_or_insert(0);
    }

    fn on_served(&mut self, source: SourceId, _bytes: u64) {
        *source.slot(&mut self.served_current, None).get_or_insert(0) += 1;
    }

    fn on_cycle(&mut self, cycle: u64) {
        if cycle >= self.next_quantum {
            self.reform_clusters();
            self.next_quantum = cycle + self.quantum_cycles;
        }
        if cycle >= self.next_shuffle {
            self.shuffle_ranks();
            self.next_shuffle = cycle + self.shuffle_cycles;
        }
    }
}

/// SMS: Staged Memory Scheduling (Ausavarungnirun et al., ISCA'12).
///
/// Requests are conceptually grouped into per-source same-row batches; the
/// scheduler then picks, with probability `p`, the source with the shortest
/// outstanding work (favouring latency-sensitive sources) and otherwise
/// round-robins across sources (fairness). Within the selected source, row
/// hits and then the oldest requests go first so batches drain in order.
#[derive(Debug)]
pub struct Sms {
    /// Probability of the shortest-job-first stage (the paper's `p`).
    pub p_shortest: f64,
    round_robin_next: usize,
    rng: SmallRng,
    /// Per-source class: [`Sms::TARGET`] for this opportunity's target,
    /// [`Sms::OTHER`] for every other source (and past the end).
    class: Vec<u32>,
    /// The source whose `class` entry is [`Sms::TARGET`].
    target: Option<SourceId>,
}

impl Sms {
    /// Creates SMS with an explicit shortest-first probability and RNG seed.
    pub fn new(p_shortest: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_shortest),
            "probability must be in [0, 1]"
        );
        Self {
            p_shortest,
            round_robin_next: 0,
            rng: SmallRng::seed_from_u64(seed),
            class: Vec::new(),
            target: None,
        }
    }

    /// Class of the target source: its requests go first.
    const TARGET: u32 = 0;
    /// Class of every other source.
    const OTHER: u32 = 1;
}

impl Default for Sms {
    fn default() -> Self {
        Self::new(0.9, 0x515)
    }
}

impl SchedulingPolicy for Sms {
    fn name(&self) -> &'static str {
        "SMS"
    }

    fn ranking(&self) -> Ranking<'_> {
        // Within the target source: row hit, then oldest.
        Ranking {
            classes: &self.class,
            unlisted: Self::OTHER,
            row_hits_first: true,
            starvation_age: None,
            picks_target: true,
        }
    }

    fn pick_target(&mut self, issuable: &[SourceId], pending_per_source: &[usize]) {
        let target = if self.rng.gen_bool(self.p_shortest) {
            // Shortest job first: least pending work controller-wide.
            issuable
                .iter()
                .copied()
                .min_by_key(|s| (pending_per_source.get(s.0).copied().unwrap_or(0), *s))
        } else {
            // Round-robin across currently present sources, in id order.
            let idx = self.round_robin_next % issuable.len().max(1);
            self.round_robin_next = self.round_robin_next.wrapping_add(1);
            issuable.get(idx).copied()
        };
        if let Some(old) = self.target.take() {
            self.class[old.0] = Self::OTHER;
        }
        if let Some(new) = target {
            *new.slot(&mut self.class, Self::OTHER) = Self::TARGET;
            self.target = Some(new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::reference::{choose, Candidate};

    fn cand(queue_idx: usize, source: usize, row_hit: bool, arrival: u64) -> Candidate {
        Candidate {
            queue_idx,
            source: SourceId(source),
            row_hit,
            arrival,
        }
    }

    #[test]
    fn all_policies_return_none_on_empty() {
        let pending: [usize; 0] = [];
        for kind in PolicyKind::all() {
            let mut p = kind.instantiate();
            assert_eq!(choose(p.as_mut(), 0, &[], &pending), None, "{kind}");
        }
    }

    #[test]
    fn all_policies_pick_the_only_candidate() {
        let pending: [usize; 0] = [];
        let cands = [cand(3, 0, false, 10)];
        for kind in PolicyKind::all() {
            let mut p = kind.instantiate();
            assert_eq!(choose(p.as_mut(), 20, &cands, &pending), Some(0), "{kind}");
        }
    }

    #[test]
    fn fcfs_ignores_row_hits() {
        let pending: [usize; 0] = [];
        let cands = [cand(0, 0, true, 20), cand(1, 1, false, 10)];
        let mut p = Fcfs::new();
        assert_eq!(choose(&mut p, 30, &cands, &pending), Some(1));
    }

    #[test]
    fn frfcfs_prefers_row_hit_over_older() {
        let pending: [usize; 0] = [];
        let cands = [cand(0, 0, true, 20), cand(1, 1, false, 10)];
        let mut p = FrFcfs::new();
        assert_eq!(choose(&mut p, 30, &cands, &pending), Some(0));
    }

    #[test]
    fn frfcfs_falls_back_to_oldest() {
        let pending: [usize; 0] = [];
        let cands = [cand(0, 0, false, 20), cand(1, 1, false, 10)];
        let mut p = FrFcfs::new();
        assert_eq!(choose(&mut p, 30, &cands, &pending), Some(1));
    }

    #[test]
    fn atlas_prioritizes_least_attained_service() {
        let pending: [usize; 0] = [];
        let mut p = Atlas::default();
        // Source 0 has received lots of service; source 1 none.
        p.on_served(SourceId(0), 1_000_000);
        p.on_enqueue(SourceId(1));
        p.on_cycle(0); // recompute ranks for the epoch
        let cands = [cand(0, 0, true, 5), cand(1, 1, false, 10)];
        assert_eq!(choose(&mut p, 50, &cands, &pending), Some(1));
    }

    #[test]
    fn atlas_starvation_threshold_overrides_service() {
        let pending: [usize; 0] = [];
        let mut p = Atlas::new(100, 50_000, 1_000, 0.875);
        p.on_served(SourceId(0), 1_000_000);
        p.on_enqueue(SourceId(1));
        p.on_cycle(0);
        // Source 0's request is over the 100-cycle threshold.
        let cands = [cand(0, 0, false, 0), cand(1, 1, true, 190)];
        assert_eq!(choose(&mut p, 200, &cands, &pending), Some(0));
    }

    #[test]
    fn atlas_rank_is_stable_within_an_epoch() {
        let pending: [usize; 0] = [];
        let mut p = Atlas::default();
        p.on_served(SourceId(0), 1_000_000);
        p.on_enqueue(SourceId(1));
        p.on_cycle(0);
        let cands = [cand(0, 0, true, 5), cand(1, 1, false, 10)];
        // Serving source 1 repeatedly does not flip the rank until the next
        // epoch boundary.
        for _ in 0..10 {
            assert_eq!(choose(&mut p, 50, &cands, &pending), Some(1));
            p.on_served(SourceId(1), 1_000_000_000);
        }
        p.on_cycle(p.epoch_cycles + 1);
        assert_eq!(choose(&mut p, 50, &cands, &pending), Some(0));
    }

    #[test]
    fn atlas_service_decays_across_quanta() {
        let mut p = Atlas::new(1_000, 100, 50, 0.5);
        p.on_served(SourceId(0), 1000);
        p.on_cycle(100);
        // total = 0.5*0 + 0.5*1000 = 500; current reset.
        assert!((p.attained_service(SourceId(0)) - 500.0).abs() < 1e-9);
        p.on_cycle(200);
        assert!((p.attained_service(SourceId(0)) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn atlas_ties_broken_by_row_hit() {
        let pending: [usize; 0] = [];
        let mut p = Atlas::default();
        let cands = [cand(0, 0, false, 5), cand(1, 1, true, 10)];
        assert_eq!(choose(&mut p, 50, &cands, &pending), Some(1));
    }

    #[test]
    fn tcm_prioritizes_latency_sensitive_cluster() {
        let pending: [usize; 0] = [];
        let mut p = Tcm::default();
        // Source 1 is heavy, source 0 light.
        for _ in 0..100 {
            p.on_served(SourceId(1), 64);
        }
        p.on_served(SourceId(0), 64);
        p.on_cycle(p.quantum_cycles); // reform clusters
        assert_eq!(p.class_of(SourceId(0)), Tcm::LATENCY);
        assert_eq!(p.class_of(SourceId(1)), Tcm::bandwidth_class(0));
        let cands = [cand(0, 1, true, 0), cand(1, 0, false, 50)];
        assert_eq!(choose(&mut p, 60_000, &cands, &pending), Some(1));
    }

    #[test]
    fn tcm_shuffle_changes_rank_order_eventually() {
        let mut p = Tcm::default();
        for s in 0..4 {
            for _ in 0..100 {
                p.on_served(SourceId(s), 64);
            }
        }
        p.on_cycle(p.quantum_cycles);
        let before = p.bw_rank.clone();
        assert_eq!(before.len(), 4);
        let mut changed = false;
        let mut t = p.quantum_cycles;
        for _ in 0..32 {
            t += p.shuffle_cycles;
            p.on_cycle(t);
            if p.bw_rank != before {
                changed = true;
                break;
            }
        }
        assert!(changed, "rank order never shuffled");
    }

    #[test]
    fn sms_shortest_first_picks_lightest_source() {
        let pending = [100, 2];
        let mut p = Sms::new(1.0, 42); // always shortest-first
        let cands = [cand(0, 0, true, 0), cand(1, 1, false, 50)];
        assert_eq!(choose(&mut p, 60, &cands, &pending), Some(1));
    }

    #[test]
    fn sms_round_robin_rotates_sources() {
        let pending: [usize; 0] = [];
        let mut p = Sms::new(0.0, 42); // always round-robin
        let cands = [cand(0, 0, false, 0), cand(1, 1, false, 0)];
        let first = choose(&mut p, 10, &cands, &pending).unwrap();
        let second = choose(&mut p, 11, &cands, &pending).unwrap();
        assert_ne!(cands[first].source, cands[second].source);
    }

    #[test]
    fn every_policy_pick_is_independent_of_candidate_order() {
        let mut rng = SmallRng::seed_from_u64(7);
        let pending: Vec<usize> = (0..4).map(|s| 4 - s).collect();
        for kind in PolicyKind::all() {
            // Two instances with the same (default) seed and history: one
            // sees the candidates as built, the other a shuffled copy.
            let (mut a, mut b) = (kind.instantiate(), kind.instantiate());
            for p in [&mut a, &mut b] {
                for s in 0..4 {
                    p.on_enqueue(SourceId(s));
                    for _ in 0..=s * 10 {
                        p.on_served(SourceId(s), 64);
                    }
                }
            }
            for round in 0..400u64 {
                let cycle = 3_000 + round * 37;
                a.on_cycle(cycle);
                b.on_cycle(cycle);
                // Coarse arrivals force ties that only `queue_idx` breaks;
                // some are past ATLAS's starvation threshold.
                let cands: Vec<Candidate> = (0..rng.gen_range(1..12usize))
                    .map(|i| {
                        let age = rng.gen_range(0..30u64) * 100;
                        cand(
                            i * 3,
                            rng.gen_range(0..4usize),
                            rng.gen_bool(0.5),
                            cycle - age,
                        )
                    })
                    .collect();
                let mut shuffled = cands.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, rng.gen_range(0..=i));
                }
                let pick_a = choose(a.as_mut(), cycle, &cands, &pending).map(|i| cands[i]);
                let pick_b = choose(b.as_mut(), cycle, &shuffled, &pending).map(|i| shuffled[i]);
                assert_eq!(pick_a, pick_b, "{kind} round {round}");
                if let Some(c) = pick_a {
                    a.on_served(c.source, 64);
                    b.on_served(c.source, 64);
                }
            }
        }
    }

    #[test]
    fn atlas_ranks_sparse_ids_as_a_map_would() {
        let pending: [usize; 0] = [];
        let mut p = Atlas::default();
        p.on_served(SourceId(63), 1_000_000);
        p.on_served(SourceId(0), 1_000);
        p.on_cycle(0);
        assert_eq!((p.rank_of(SourceId(0)), p.rank_of(SourceId(63))), (0, 1));
        // Ids never seen, inside the table or past its end, rank first
        // with no attained service.
        for unseen in [1, 62, 64, 1_000] {
            assert_eq!(p.rank_of(SourceId(unseen)), 0, "src{unseen}");
            assert_eq!(p.attained_service(SourceId(unseen)), 0.0, "src{unseen}");
        }
        // A source first seen mid-epoch still ranks 0 until the next one.
        p.on_served(SourceId(7), 10_000_000);
        assert_eq!(p.rank_of(SourceId(7)), 0);
        let cands = [cand(0, 63, true, 5), cand(1, 1_000, false, 10)];
        assert_eq!(choose(&mut p, 50, &cands, &pending), Some(1));
        let cands = [cand(0, 0, false, 5), cand(1, 7, true, 10)];
        assert_eq!(choose(&mut p, 50, &cands, &pending), Some(1), "rank tie");
        p.on_cycle(p.epoch_cycles);
        let ranks = [0, 63, 7].map(|s| p.rank_of(SourceId(s)));
        assert_eq!(ranks, [0, 1, 2], "least attained service first");
        assert_eq!(choose(&mut p, 50, &cands, &pending), Some(0));
    }

    #[test]
    fn tcm_classes_sparse_ids_as_a_map_would() {
        let pending: [usize; 0] = [];
        let mut p = Tcm::default();
        for (src, serves) in [(0, 1), (9, 50), (63, 100)] {
            for _ in 0..serves {
                p.on_served(SourceId(src), 64);
            }
        }
        p.on_cycle(p.quantum_cycles);
        // Budget 151 * 4/24 = 25 requests: only the lightest source fits.
        assert_eq!(p.class_of(SourceId(0)), Tcm::LATENCY);
        assert_eq!(p.bw_rank, [SourceId(9), SourceId(63)]);
        assert_eq!(p.class_of(SourceId(9)), Tcm::bandwidth_class(0));
        assert_eq!(p.class_of(SourceId(63)), Tcm::bandwidth_class(1));
        for unseen in [1, 62, 64, 1_000] {
            assert_eq!(
                p.class_of(SourceId(unseen)),
                Tcm::UNCLUSTERED,
                "src{unseen}"
            );
        }
        // Seen after the re-clustering: unclustered until the next one.
        p.on_enqueue(SourceId(30));
        assert_eq!(p.class_of(SourceId(30)), Tcm::UNCLUSTERED);
        let cands = [cand(0, 1_000, true, 0), cand(1, 63, false, 50)];
        assert_eq!(choose(&mut p, 9_000, &cands, &pending), Some(1));
        let cands = [cand(0, 9, true, 0), cand(1, 0, false, 50)];
        assert_eq!(choose(&mut p, 9_000, &cands, &pending), Some(1));
        // Every shuffle rewrites the ranks from the shuffled order.
        let mut t = p.quantum_cycles;
        for _ in 0..16 {
            t += p.shuffle_cycles;
            p.on_cycle(t);
            for (rank, src) in p.bw_rank.iter().enumerate() {
                assert_eq!(p.class_of(*src), Tcm::bandwidth_class(rank));
            }
            assert_eq!(p.class_of(SourceId(0)), Tcm::LATENCY);
        }
    }

    #[test]
    fn sms_reads_sparse_pending_counts_as_a_map_would() {
        let mut pending = vec![0; 64];
        pending[0] = 5;
        pending[63] = 1;
        let mut p = Sms::new(1.0, 42); // always shortest-first
        let cands = [cand(0, 0, true, 0), cand(1, 63, false, 50)];
        assert_eq!(choose(&mut p, 60, &cands, &pending), Some(1));
        // An id past the end of the table has nothing pending.
        let cands = [cand(0, 63, true, 0), cand(1, 1_000, false, 50)];
        assert_eq!(choose(&mut p, 60, &cands, &pending), Some(1));
    }

    #[test]
    fn policy_kind_labels_and_fairness() {
        assert_eq!(PolicyKind::FrFcfs.label(), "FR-FCFS");
        assert!(!PolicyKind::Fcfs.has_fairness_control());
        assert!(PolicyKind::Atlas.has_fairness_control());
        assert_eq!(PolicyKind::all().len(), 5);
        assert_eq!(PolicyKind::fairness_aware().len(), 3);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn atlas_rejects_bad_alpha() {
        let _ = Atlas::new(1, 1, 1, 1.5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn sms_rejects_bad_probability() {
        let _ = Sms::new(-0.1, 0);
    }
}

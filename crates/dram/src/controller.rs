//! The memory controller: per-channel request queues, bank state, and the
//! pluggable scheduling policy.
//!
//! Modelling notes (deviations from a full command-level simulator, all of
//! which preserve the contention behaviour the study measures):
//!
//! * The per-request command sequence (PRE/ACT/RD) is collapsed into one
//!   service window computed from the row-buffer outcome; tRAS is enforced
//!   on row conflicts, tWTR on reads after writes, and ACTIVATEs are paced
//!   per channel by tRRD_S/L and the four-activate window (tFAW).
//! * The channel data bus serializes transfers; a bank may overlap its next
//!   access with a queued transfer (bank-level pipelining), so sustained
//!   throughput is bus-limited exactly at the configured peak.
//! * All-bank refresh runs every tREFI with an honest PRE→REF sequence
//!   (a uniform tax on all sources, but it keeps bandwidth honest).
//!
//! The emitted command stream is JEDEC-auditable: enable the
//! [`crate::conformance`] sanitizer via
//! [`MemoryController::enable_conformance`] to replay it against reference
//! timing constraints.
//!
//! [`MemoryController::enable_conformance`]: crate::controller::MemoryController::enable_conformance

use crate::bank::Bank;
use crate::config::DramConfig;
use crate::conformance::{CmdKind, CommandRecord, ConformanceChecker, ConformanceReport};
use crate::mapping::{AddressDecoder, AddressMapping};
use crate::policy::{RankKey, SchedulingPolicy};
use crate::request::{DecodedAddr, MemoryRequest, ReqKind, SourceId};
use crate::stats::{MemoryStats, SchedulerStats, SourceTable};
use crate::timing::{DramTiming, RowOutcome};
use pccs_telemetry::{EpochRecorder, RowEvent, StallEvent, TelemetryReport};
use std::collections::VecDeque;

/// Maximum row-hit streak an open row may serve while shielded from
/// closure by pending hits (starvation control for conflicting requests).
const ROW_STREAK_CAP: u64 = 64;

/// A request completion event delivered by
/// [`MemoryController::tick_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The id of the completed request.
    pub request_id: u64,
    /// The source that issued it.
    pub source: SourceId,
    /// The cycle at which the last data beat transferred.
    pub finish: u64,
}

/// Issued requests waiting for their last data beat, kept sorted by
/// `(finish, request id, source)`: the order completions are delivered in
/// (ids alone collide across sources). Requests issue roughly in finish
/// order, so an insert from the back passes only the few entries that
/// finish later, and the due ones leave from the front.
#[derive(Debug, Default)]
struct CompletionQueue(VecDeque<(u64, u64, usize)>);

impl CompletionQueue {
    /// Inserts `entry` behind every entry that is not larger: appends it,
    /// then moves each larger entry one place back, as one step of an
    /// insertion sort. `make_contiguous` moves entries only when the ring
    /// has wrapped.
    #[inline]
    fn push(&mut self, entry: (u64, u64, usize)) {
        self.0.push_back(entry);
        let sorted = self.0.make_contiguous();
        let mut at = sorted.len() - 1;
        while at > 0 && sorted[at - 1] > entry {
            sorted[at] = sorted[at - 1];
            at -= 1;
        }
        sorted[at] = entry;
    }

    /// Removes and returns the smallest entry if it finishes at or before
    /// `cycle`.
    #[inline]
    fn pop_due(&mut self, cycle: u64) -> Option<(u64, u64, usize)> {
        match self.0.front() {
            Some(&(finish, _, _)) if finish <= cycle => self.0.pop_front(),
            _ => None,
        }
    }
}

/// An in-flight request plus its decoded DRAM coordinates. Stored in the
/// controller-level slab; channel queues and bank lists hold slot indices
/// into it, and the entry records its position in each.
#[derive(Debug, Clone, Copy)]
struct QueuedRequest {
    req: MemoryRequest,
    decoded: DecodedAddr,
    /// Position in `ChannelState::queue`: the ranking's `queue_idx`.
    queue_pos: u32,
    /// Position in its bank's `BankQueue::slots`.
    bank_pos: u32,
    /// Position in its bank's `BankQueue::hits`; meaningful only while the
    /// request's row is the bank's open row.
    hit_pos: u32,
}

/// The queued requests of one bank, its open-row hits among them, and the
/// write count the scheduler gates on. Kept exact on enqueue, issue and
/// refresh, so a scheduling opportunity never rescans the channel queue.
#[derive(Debug, Default)]
struct BankQueue {
    /// Slab slots of the bank's queued requests, in no particular order.
    slots: Vec<u32>,
    /// The slots of `slots` whose row is the bank's open row (row hits if
    /// issued now), in no particular order.
    hits: Vec<u32>,
    /// Queued writes (the rest of `slots` are reads).
    writes: u32,
}

impl BankQueue {
    /// Rebuilds `hits` for a newly opened `row`.
    fn rebuild_hits(&mut self, slab: &mut [QueuedRequest], row: u64) {
        self.hits.clear();
        for &slot in &self.slots {
            let q = &mut slab[slot as usize];
            if q.decoded.row == row {
                q.hit_pos = self.hits.len() as u32;
                self.hits.push(slot);
            }
        }
    }
}

/// `list.swap_remove(pos)`, then records the moved entry's new position
/// through `field`.
fn swap_remove_slot(
    list: &mut Vec<u32>,
    pos: usize,
    slab: &mut [QueuedRequest],
    field: fn(&mut QueuedRequest) -> &mut u32,
) {
    if pos < list.len() {
        list.swap_remove(pos);
        if let Some(&moved) = list.get(pos) {
            *field(&mut slab[moved as usize]) = pos as u32;
        }
    }
}

#[derive(Debug)]
struct ChannelState {
    /// Queued (unissued) requests, as slot indices into the controller's
    /// request slab. Position order is the arrival order modulo
    /// `swap_remove` holes — exactly what the policy's `queue_idx` sees.
    queue: Vec<u32>,
    banks: Vec<Bank>,
    /// The same requests grouped by bank, indexed like `banks`.
    bank_queues: Vec<BankQueue>,
    /// Bitmask of the banks with at least one queued request.
    occupied: u128,
    /// Next cycle at which the channel may issue (data-bus rate pacing).
    next_issue_at: u64,
    /// Next cycle at which an all-bank refresh is due (u64::MAX = never).
    next_refresh_at: u64,
    /// Recent ACTIVATE command timestamps with their bank group, pruned to
    /// the tFAW/tRRD horizon; paces activates per channel.
    acts: Vec<(u64, usize)>,
}

impl ChannelState {
    /// Removes the request at `queue_idx` from the queue, from its bank
    /// list and (if it hits the open row) from its bank's hit list, fixing
    /// up the recorded position of whichever entry each `swap_remove`
    /// moved, and returns its slab slot.
    fn dequeue(&mut self, slab: &mut [QueuedRequest], queue_idx: usize) -> u32 {
        let slot = self.queue[queue_idx];
        swap_remove_slot(&mut self.queue, queue_idx, slab, |q| &mut q.queue_pos);
        let q = slab[slot as usize];
        let bank = &mut self.bank_queues[q.decoded.bank];
        swap_remove_slot(&mut bank.slots, q.bank_pos as usize, slab, |q| {
            &mut q.bank_pos
        });
        if self.banks[q.decoded.bank].open_row() == Some(q.decoded.row) {
            swap_remove_slot(&mut bank.hits, q.hit_pos as usize, slab, |q| &mut q.hit_pos);
        }
        if q.req.kind == ReqKind::Write {
            bank.writes = bank.writes.saturating_sub(1);
        }
        if bank.slots.is_empty() {
            self.occupied &= !(1u128 << q.decoded.bank);
        }
        slot
    }
}

/// Whether an ACTIVATE at `act_at` in `group` respects tRRD_S/L and tFAW
/// against the channel's recent ACT history. The exact mirror of the
/// conformance checker's replay rule, so a filtered schedule is clean by
/// construction.
fn act_is_legal(acts: &[(u64, usize)], act_at: u64, group: usize, timing: &DramTiming) -> bool {
    for &(a, g) in acts {
        let need = if g == group {
            timing.t_rrd_l
        } else {
            timing.t_rrd_s
        };
        if need > 0 && act_at.abs_diff(a) < need {
            return false;
        }
    }
    if timing.t_faw > 0 && acts.len() >= 4 {
        // Five ACTs (recorded or prospective) inside one tFAW window. Some
        // five sorted neighbours span less than tFAW exactly when some ACT
        // starts a window [t, t + tFAW) that holds five, so no sort (and no
        // allocation) is needed.
        let times = || acts.iter().map(|&(a, _)| a).chain(std::iter::once(act_at));
        for start in times() {
            let inside = times()
                .filter(|&t| t >= start && t - start < timing.t_faw)
                .count();
            if inside >= 5 {
                return false;
            }
        }
    }
    true
}

/// A multi-channel memory controller with a pluggable scheduling policy.
#[derive(Debug)]
pub struct MemoryController {
    config: DramConfig,
    decoder: AddressDecoder,
    /// Cycles of data-bus occupancy per line (`DramConfig::burst_cycles`).
    burst: u64,
    /// Bank group of each bank (`DramConfig::bank_group`).
    bank_groups: Vec<usize>,
    /// Whether the policy shields open rows
    /// (`SchedulingPolicy::respects_open_rows`, read once).
    shield_rows: bool,
    policy: Box<dyn SchedulingPolicy>,
    channels: Vec<ChannelState>,
    /// Slab of in-flight queued requests; channel queues index into it, so
    /// enqueue/issue never reallocate per request in steady state.
    slab: Vec<QueuedRequest>,
    /// Free slot indices in `slab`.
    free_slots: Vec<u32>,
    /// Reusable buffer of the distinct sources with an issuable request,
    /// filled only for a ranking that picks a target.
    issuable_sources: Vec<SourceId>,
    /// Per source, the smallest key among its issuable requests, indexed by
    /// `SourceId.0`; filled for `issuable_sources` only, and emptied again
    /// after each pick.
    best_of_source: Vec<Option<RankKey>>,
    /// Per-source statistics (`MemoryStats::per_source`).
    sources: SourceTable,
    /// Cycles simulated (`MemoryStats::elapsed_cycles`).
    elapsed_cycles: u64,
    scheduler: SchedulerStats,
    /// Queued requests per source, indexed by `SourceId.0`.
    pending_per_source: Vec<usize>,
    completions: CompletionQueue,
    /// Optional epoch telemetry; `None` costs one branch per hook site.
    recorder: Option<EpochRecorder>,
    /// Optional protocol conformance observer; `None` costs one branch per
    /// issued request.
    conformance: Option<ConformanceChecker>,
}

impl MemoryController {
    /// Creates a controller for the given memory geometry and policy, with
    /// the default address mapping.
    pub fn new(config: DramConfig, policy: Box<dyn SchedulingPolicy>) -> Self {
        let channels = (0..config.channels)
            .map(|_| ChannelState {
                queue: Vec::with_capacity(config.queue_capacity),
                banks: (0..config.banks_per_channel).map(|_| Bank::new()).collect(),
                bank_queues: (0..config.banks_per_channel)
                    .map(|_| BankQueue::default())
                    .collect(),
                occupied: 0,
                next_issue_at: 0,
                next_refresh_at: if config.timing.t_refi == 0 {
                    u64::MAX
                } else {
                    config.timing.t_refi
                },
                acts: Vec::new(),
            })
            .collect();
        assert!(
            config.banks_per_channel <= 128,
            "unsupported geometry: more than 128 banks per channel"
        );
        assert!(
            config.queue_capacity < 1 << RankKey::QUEUE_BITS,
            "unsupported queue capacity: 2^30 requests or more"
        );
        let slab_capacity = config.queue_capacity * config.channels;
        Self {
            decoder: AddressMapping::default().decoder(&config),
            burst: config.burst_cycles(),
            bank_groups: (0..config.banks_per_channel)
                .map(|b| config.bank_group(b))
                .collect(),
            shield_rows: policy.respects_open_rows(),
            config,
            policy,
            channels,
            slab: Vec::with_capacity(slab_capacity),
            free_slots: Vec::new(),
            issuable_sources: Vec::new(),
            best_of_source: Vec::new(),
            sources: SourceTable::default(),
            elapsed_cycles: 0,
            scheduler: SchedulerStats::default(),
            pending_per_source: Vec::new(),
            completions: CompletionQueue::default(),
            recorder: None,
            conformance: None,
        }
    }

    /// Attaches the protocol conformance sanitizer, validating the emitted
    /// command stream against `reference` timing (usually the same values
    /// the controller schedules with; pass a known-good timing set to audit
    /// a deliberately broken configuration). Costs one small record per
    /// DRAM command, so it is opt-in.
    pub fn enable_conformance(&mut self, reference: DramTiming) {
        self.conformance = Some(ConformanceChecker::with_reference(&self.config, reference));
    }

    /// Replays the observed command stream and returns the conformance
    /// report, or `None` when the sanitizer was never enabled.
    pub fn conformance_report(&self) -> Option<ConformanceReport> {
        self.conformance.as_ref().map(ConformanceChecker::finish)
    }

    /// Attaches an epoch recorder sampling per-cycle queue depth,
    /// per-serve, and scheduler-stall events every `epoch_cycles` cycles.
    pub fn record_epochs(&mut self, epoch_cycles: u64) {
        self.recorder = Some(EpochRecorder::new(epoch_cycles));
    }

    /// Flushes the epoch recorder and returns its report, or `None` when
    /// none was attached.
    pub fn take_report(&mut self) -> Option<TelemetryReport> {
        let r = self.recorder.as_mut()?;
        r.finish();
        Some(r.report())
    }

    /// The memory geometry this controller drives.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The active scheduling policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// A copy of the statistics accumulated so far.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            per_source: self.sources.clone().into_map(),
            elapsed_cycles: self.elapsed_cycles,
            scheduler: self.scheduler.clone(),
        }
    }

    /// Consumes the controller, returning its accumulated statistics.
    pub fn into_stats(self) -> MemoryStats {
        MemoryStats {
            per_source: self.sources.into_map(),
            elapsed_cycles: self.elapsed_cycles,
            scheduler: self.scheduler,
        }
    }

    /// Number of queued (unissued) requests across all channels.
    pub fn pending(&self) -> usize {
        self.channels.iter().map(|c| c.queue.len()).sum()
    }

    /// Number of queued requests for one source.
    pub fn pending_for(&self, source: SourceId) -> usize {
        self.pending_per_source.get(source.0).copied().unwrap_or(0)
    }

    /// Attempts to enqueue a request; returns it back if the target
    /// channel's queue is full (back-pressure).
    ///
    /// # Errors
    ///
    /// Returns `Err(req)` when the channel queue has no room; the caller
    /// should retry on a later cycle.
    pub fn try_enqueue(&mut self, req: MemoryRequest) -> Result<(), MemoryRequest> {
        let decoded = self.decoder.decode(req.addr);
        let channel = &mut self.channels[decoded.channel];
        let source = self.sources.source_mut(req.source);
        if channel.queue.len() >= self.config.queue_capacity {
            source.rejected += 1;
            return Err(req);
        }
        source.enqueued += 1;
        *req.source.slot(&mut self.pending_per_source, 0) += 1;
        self.policy.on_enqueue(req.source);
        let bank = &mut channel.bank_queues[decoded.bank];
        let entry = QueuedRequest {
            req,
            decoded,
            queue_pos: channel.queue.len() as u32,
            bank_pos: bank.slots.len() as u32,
            hit_pos: bank.hits.len() as u32,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        };
        channel.queue.push(slot);
        bank.slots.push(slot);
        if req.kind == ReqKind::Write {
            bank.writes += 1;
        }
        if channel.banks[decoded.bank].open_row() == Some(decoded.row) {
            bank.hits.push(slot);
        }
        channel.occupied |= 1u128 << decoded.bank;
        let depth = channel.queue.len() as u64;
        if depth > self.scheduler.queue_hwm {
            self.scheduler.queue_hwm = depth;
        }
        Ok(())
    }

    /// Advances the controller by one cycle: lets the policy pick at most
    /// one request per channel, updates bank/bus state, and appends the
    /// completions whose data finished transferring at or before `cycle`
    /// to `out` in (finish, id, source) order (the buffer is not cleared,
    /// so callers can reuse one allocation across the whole run).
    pub fn tick_into(&mut self, cycle: u64, out: &mut Vec<Completion>) {
        self.policy.on_cycle(cycle);
        self.elapsed_cycles = self.elapsed_cycles.max(cycle + 1);
        if self.recorder.is_some() {
            let depth = self.pending();
            if let Some(r) = self.recorder.as_mut() {
                r.on_tick(cycle, depth);
            }
        }

        for ch_idx in 0..self.channels.len() {
            self.schedule_channel(ch_idx, cycle);
        }

        while let Some((finish, id, source)) = self.completions.pop_due(cycle) {
            out.push(Completion {
                request_id: id,
                source: SourceId(source),
                finish,
            });
        }
    }

    /// Visits, as `visit(q, row_hit)`, every request of channel `ch_idx`
    /// that may issue at `cycle`, bank by bank. The gates are evaluated once
    /// per occupied bank, and only the lists of banks that can issue are
    /// read: a bank whose open row is shielded offers only its hit list.
    fn visit_issuable(
        &self,
        ch_idx: usize,
        cycle: u64,
        mut visit: impl FnMut(&QueuedRequest, bool),
    ) {
        let channel = &self.channels[ch_idx];
        let timing = &self.config.timing;
        // Open-page awareness: while a bank still has queued row hits for
        // its open row, realistic schedulers do not close that row for a
        // conflicting request — the pending hits cost tCCD each, the
        // precharge+activate costs an order of magnitude more. A per-row
        // hit budget bounds the shielding so conflicting requests cannot
        // starve (row-hit streak cap, as in real MCs).
        let shield_rows = self.shield_rows;
        let mut occupied = channel.occupied;
        while occupied != 0 {
            let b = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            let bank = &channel.banks[b];
            let queued = &channel.bank_queues[b];
            if !bank.is_ready(cycle) {
                continue;
            }
            let read_ready = bank.is_ready_for(ReqKind::Read, cycle);
            if !read_ready && queued.writes == 0 {
                continue;
            }
            // Every request that misses the open row implies the same
            // ACTIVATE, so its tRRD/tFAW legality is one gate per bank.
            let hits = queued.hits.len();
            let misses_ok = queued.slots.len() > hits
                && !(shield_rows && hits > 0 && bank.hits_since_open() < ROW_STREAK_CAP)
                && act_is_legal(
                    &channel.acts,
                    bank.next_act_at(cycle, timing),
                    self.bank_groups[b],
                    timing,
                );
            if hits == 0 && !misses_ok {
                continue;
            }
            self.visit_bank(channel, b, misses_ok, read_ready, &mut visit);
        }
    }

    /// Visits the requests of bank `b` that its gates let issue: its whole
    /// list if misses may issue, else only its hit list; reads only if
    /// `read_ready`.
    #[inline]
    fn visit_bank(
        &self,
        channel: &ChannelState,
        b: usize,
        misses_ok: bool,
        read_ready: bool,
        visit: &mut impl FnMut(&QueuedRequest, bool),
    ) {
        let queued = &channel.bank_queues[b];
        if misses_ok {
            let open_row = channel.banks[b].open_row();
            for &slot in &queued.slots {
                let q = &self.slab[slot as usize];
                if read_ready || q.req.kind != ReqKind::Read {
                    visit(q, open_row == Some(q.decoded.row));
                }
            }
        } else {
            for &slot in &queued.hits {
                let q = &self.slab[slot as usize];
                if read_ready || q.req.kind != ReqKind::Read {
                    visit(q, true);
                }
            }
        }
    }

    /// The queue index of the request channel `ch_idx` issues at `cycle`:
    /// the smallest under the policy's ranking, found in the pass that
    /// applies the bank gates.
    fn pick(&mut self, ch_idx: usize, cycle: u64) -> Option<usize> {
        let ranking = self.policy.ranking();
        let starved_before = ranking.starved_before(cycle);
        let key_of = |q: &QueuedRequest, row_hit| {
            ranking.key(
                q.req.source,
                row_hit,
                q.req.arrival,
                q.queue_pos,
                starved_before,
            )
        };
        let mut best = RankKey::NONE;
        if !ranking.picks_target {
            self.visit_issuable(ch_idx, cycle, |q, row_hit| {
                best = best.min(key_of(q, row_hit))
            });
            return (best != RankKey::NONE).then(|| best.queue_idx());
        }
        // The classes depend on the target, which depends on the issuable
        // sources. A source's class is one constant for all its requests,
        // so its best request is the same before and after the target is
        // picked: keep the best per source, then re-class only those.
        let mut sources = std::mem::take(&mut self.issuable_sources);
        let mut best_of = std::mem::take(&mut self.best_of_source);
        sources.clear();
        self.visit_issuable(ch_idx, cycle, |q, row_hit| {
            let key = key_of(q, row_hit);
            match q.req.source.slot(&mut best_of, None) {
                Some(b) => *b = (*b).min(key),
                b @ None => {
                    *b = Some(key);
                    sources.push(q.req.source);
                }
            }
        });
        if !sources.is_empty() {
            sources.sort_unstable();
            self.policy.pick_target(&sources, &self.pending_per_source);
            let ranking = self.policy.ranking();
            for s in &sources {
                if let Some(key) = best_of[s.0].take() {
                    best = best.min(key.with_class(ranking.class(*s)));
                }
            }
        }
        self.issuable_sources = sources;
        self.best_of_source = best_of;
        (best != RankKey::NONE).then(|| best.queue_idx())
    }

    fn schedule_channel(&mut self, ch_idx: usize, cycle: u64) {
        // The data bus is modelled as a rate limiter: at most one line may
        // *begin* service per burst window, which caps sustained channel
        // throughput at exactly the bus rate while letting transfers from
        // different banks complete out of order (a row conflict delays only
        // its own bank, not the channel pipeline).
        let burst = self.burst;
        // All-bank refresh: blocks every bank of the channel for tRFC. A
        // uniform tax on all sources (it cannot change *relative* speeds),
        // but it keeps effective bandwidth honest. The sequence is
        // protocol-honest: wait for in-flight accesses and tRAS, precharge
        // any open rows, then REF after tRP.
        {
            let t_rfc = self.config.timing.t_rfc;
            let t_refi = self.config.timing.t_refi;
            let t_rp = self.config.timing.t_rp;
            let channel = &mut self.channels[ch_idx];
            if cycle >= channel.next_refresh_at {
                let pre_at = channel
                    .banks
                    .iter()
                    .map(|b| b.refresh_pre_at(cycle))
                    .max()
                    .unwrap_or(cycle);
                let any_open = channel.banks.iter().any(|b| b.open_row().is_some());
                let ref_at = if any_open { pre_at + t_rp } else { pre_at };
                if let Some(c) = self.conformance.as_mut() {
                    for (bank_idx, bank) in channel.banks.iter().enumerate() {
                        if bank.open_row().is_some() {
                            c.observe(CommandRecord {
                                cycle: pre_at,
                                channel: ch_idx,
                                bank: bank_idx,
                                kind: CmdKind::Pre,
                                row: None,
                            });
                        }
                    }
                    c.observe(CommandRecord {
                        cycle: ref_at,
                        channel: ch_idx,
                        bank: 0,
                        kind: CmdKind::RefAb,
                        row: None,
                    });
                }
                for bank in &mut channel.banks {
                    bank.refresh_until(ref_at + t_rfc);
                }
                // Refresh closes every row: no queued request hits any more.
                for queued in &mut channel.bank_queues {
                    queued.hits.clear();
                }
                channel.next_refresh_at = channel.next_refresh_at.saturating_add(t_refi);
            }
        }
        {
            let channel = &self.channels[ch_idx];
            if channel.queue.is_empty() {
                self.scheduler.idle += 1;
                if let Some(r) = self.recorder.as_mut() {
                    r.on_stall(cycle, StallEvent::Idle);
                }
                return;
            }
            if cycle < channel.next_issue_at {
                self.scheduler.bus_blocked += 1;
                if let Some(r) = self.recorder.as_mut() {
                    r.on_stall(cycle, StallEvent::BusBlocked);
                }
                return;
            }
        }

        let picked = self.pick(ch_idx, cycle);
        #[cfg(test)]
        reference::check(self, ch_idx, cycle, picked);
        let Some(queue_idx) = picked else {
            self.scheduler.no_candidate += 1;
            if let Some(r) = self.recorder.as_mut() {
                r.on_stall(cycle, StallEvent::NoCandidate);
            }
            return;
        };

        let channel = &mut self.channels[ch_idx];
        let slot = channel.dequeue(&mut self.slab, queue_idx);
        let q = self.slab[slot as usize];
        self.free_slots.push(slot);
        let issue = channel.banks[q.decoded.bank].issue(
            q.decoded.row,
            q.req.kind,
            cycle,
            &self.config.timing,
            burst,
        );
        if issue.outcome != RowOutcome::Hit {
            // A new row opened: rebuild the bank's hit list against it.
            channel.bank_queues[q.decoded.bank].rebuild_hits(&mut self.slab, q.decoded.row);
        }
        let finish = issue.data_ready + burst;
        channel.next_issue_at = cycle + burst;
        if let Some(act_at) = issue.act_at {
            let horizon = self.config.timing.t_faw.max(self.config.timing.t_rrd_l);
            channel.acts.retain(|&(a, _)| a + horizon > cycle);
            channel
                .acts
                .push((act_at, self.bank_groups[q.decoded.bank]));
        }
        if let Some(c) = self.conformance.as_mut() {
            if let Some(pre_at) = issue.pre_at {
                c.observe(CommandRecord {
                    cycle: pre_at,
                    channel: ch_idx,
                    bank: q.decoded.bank,
                    kind: CmdKind::Pre,
                    row: None,
                });
            }
            if let Some(act_at) = issue.act_at {
                c.observe(CommandRecord {
                    cycle: act_at,
                    channel: ch_idx,
                    bank: q.decoded.bank,
                    kind: CmdKind::Act,
                    row: Some(q.decoded.row),
                });
            }
            c.observe(CommandRecord {
                cycle: issue.cas_at,
                channel: ch_idx,
                bank: q.decoded.bank,
                kind: if q.req.kind == ReqKind::Write {
                    CmdKind::Wr
                } else {
                    CmdKind::Rd
                },
                row: Some(q.decoded.row),
            });
        }

        if let Some(n) = self.pending_per_source.get_mut(q.req.source.0) {
            *n = n.saturating_sub(1);
        }
        self.policy.on_served(q.req.source, u64::from(q.req.bytes));
        let latency = finish.saturating_sub(q.req.arrival);
        self.sources.source_mut(q.req.source).record_served(
            u64::from(q.req.bytes),
            issue.outcome,
            latency,
        );
        self.scheduler.issued += 1;
        if let Some(r) = self.recorder.as_mut() {
            r.on_stall(cycle, StallEvent::Issued);
            let row = match issue.outcome {
                RowOutcome::Hit => RowEvent::Hit,
                RowOutcome::Miss => RowEvent::Miss,
                RowOutcome::Conflict => RowEvent::Conflict,
            };
            r.on_serve(cycle, q.req.source.0, u64::from(q.req.bytes), row);
        }
        self.completions.push((finish, q.req.id, q.req.source.0));
    }
}

/// The full-queue rescan and candidate-list pick that the per-bank lists
/// and the one-pass pick replaced, kept as the differential oracle: in test
/// builds every scheduling decision is checked against them.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::policy::Ranking;

    /// One issuable request, as a candidate list held it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Candidate {
        /// Index of the request in the channel queue.
        pub(crate) queue_idx: usize,
        pub(crate) source: SourceId,
        /// Whether the request would hit in the currently open row.
        pub(crate) row_hit: bool,
        pub(crate) arrival: u64,
    }

    /// The candidate with the smallest key under `ranking`, as an index
    /// into `cands`.
    pub(crate) fn pick(ranking: &Ranking<'_>, cycle: u64, cands: &[Candidate]) -> Option<usize> {
        let starved_before = ranking.starved_before(cycle);
        cands
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| {
                ranking.key(
                    c.source,
                    c.row_hit,
                    c.arrival,
                    c.queue_idx as u32,
                    starved_before,
                )
            })
            .map(|(i, _)| i)
    }

    /// The distinct sources of `cands` in ascending id order.
    fn sources(cands: &[Candidate]) -> Vec<SourceId> {
        let mut sources: Vec<SourceId> = cands.iter().map(|c| c.source).collect();
        sources.sort_unstable();
        sources.dedup();
        sources
    }

    /// A whole scheduling decision over a candidate list: `None` on an empty
    /// list, else the policy's target pick (if its ranking picks one) and
    /// then the smallest-ranked candidate.
    pub(crate) fn choose(
        policy: &mut dyn SchedulingPolicy,
        cycle: u64,
        cands: &[Candidate],
        pending_per_source: &[usize],
    ) -> Option<usize> {
        if cands.is_empty() {
            return None;
        }
        if policy.ranking().picks_target {
            policy.pick_target(&sources(cands), pending_per_source);
        }
        pick(&policy.ranking(), cycle, cands)
    }

    /// `act_is_legal` as first written: sorts every recorded ACT time.
    fn act_is_legal(acts: &[(u64, usize)], act_at: u64, group: usize, timing: &DramTiming) -> bool {
        for &(a, g) in acts {
            let need = if g == group {
                timing.t_rrd_l
            } else {
                timing.t_rrd_s
            };
            if need > 0 && act_at.abs_diff(a) < need {
                return false;
            }
        }
        if timing.t_faw > 0 && acts.len() >= 4 {
            let mut all: Vec<u64> = acts.iter().map(|&(a, _)| a).collect();
            all.push(act_at);
            all.sort_unstable();
            for w in all.windows(5) {
                if w[4] - w[0] < timing.t_faw {
                    return false;
                }
            }
        }
        true
    }

    /// A bitmask of banks that still have queued row hits for their open
    /// row.
    fn pending_hit_mask(mc: &MemoryController, channel: &ChannelState) -> u128 {
        let mut mask = 0u128;
        for &slot in &channel.queue {
            let q = &mc.slab[slot as usize];
            if channel.banks[q.decoded.bank].open_row() == Some(q.decoded.row) {
                mask |= 1 << q.decoded.bank;
            }
        }
        mask
    }

    /// Whether queued request `q` is schedulable on its channel at `cycle`.
    fn is_schedulable(
        q: &QueuedRequest,
        channel: &ChannelState,
        pending_hit: bool,
        shield_rows: bool,
        cycle: u64,
        config: &DramConfig,
    ) -> bool {
        let bank = &channel.banks[q.decoded.bank];
        if !bank.is_ready_for(q.req.kind, cycle) {
            return false;
        }
        let row_hit = bank.open_row() == Some(q.decoded.row);
        if shield_rows && !row_hit && pending_hit && bank.hits_since_open() < ROW_STREAK_CAP {
            return false;
        }
        if let Some(act_at) = bank.prospective_act_at(q.decoded.row, cycle, &config.timing) {
            let group = config.bank_group(q.decoded.bank);
            if !act_is_legal(&channel.acts, act_at, group, &config.timing) {
                return false;
            }
        }
        true
    }

    /// The rescan's candidates, in queue order.
    pub(crate) fn candidates(mc: &MemoryController, ch_idx: usize, cycle: u64) -> Vec<Candidate> {
        let channel = &mc.channels[ch_idx];
        let shield_rows = mc.policy.respects_open_rows();
        let pending_hits = if shield_rows {
            pending_hit_mask(mc, channel)
        } else {
            0
        };
        let mut out = Vec::new();
        for (i, &slot) in channel.queue.iter().enumerate() {
            let q = &mc.slab[slot as usize];
            let pending_hit = pending_hits >> q.decoded.bank & 1 != 0;
            if is_schedulable(q, channel, pending_hit, shield_rows, cycle, &mc.config) {
                out.push(Candidate {
                    queue_idx: i,
                    source: q.req.source,
                    row_hit: channel.banks[q.decoded.bank].open_row() == Some(q.decoded.row),
                    arrival: q.req.arrival,
                });
            }
        }
        out
    }

    /// Panics unless `picked` is the rescan's pick under the policy's
    /// ranking (and, for a ranking that picks a target, the target was
    /// picked from the rescan's sources), and every per-bank list, count
    /// and recorded position of channel `ch_idx` equals a from-scratch
    /// recount.
    pub(super) fn check(mc: &MemoryController, ch_idx: usize, cycle: u64, picked: Option<usize>) {
        let channel = &mc.channels[ch_idx];
        let cands = candidates(mc, ch_idx, cycle);
        let ranking = mc.policy.ranking();
        if ranking.picks_target && !cands.is_empty() {
            assert_eq!(
                mc.issuable_sources,
                sources(&cands),
                "issuable sources differ on channel {ch_idx} at cycle {cycle}"
            );
        }
        assert_eq!(
            picked,
            pick(&ranking, cycle, &cands).map(|i| cands[i].queue_idx),
            "picks differ on channel {ch_idx} at cycle {cycle}"
        );

        // (len, writes, hits) per bank, recounted from the queue.
        let mut recount = vec![(0u32, 0u32, 0u32); channel.banks.len()];
        for (pos, &slot) in channel.queue.iter().enumerate() {
            let q = &mc.slab[slot as usize];
            assert_eq!(q.queue_pos as usize, pos, "stale queue position");
            let r = &mut recount[q.decoded.bank];
            r.0 += 1;
            if q.req.kind == ReqKind::Write {
                r.1 += 1;
            }
            if channel.banks[q.decoded.bank].open_row() == Some(q.decoded.row) {
                r.2 += 1;
            }
        }
        let mut occupied = 0u128;
        for (b, queued) in channel.bank_queues.iter().enumerate() {
            let (len, writes, hits) = recount[b];
            assert_eq!(
                (
                    queued.slots.len() as u32,
                    queued.writes,
                    queued.hits.len() as u32
                ),
                (len, writes, hits),
                "bank {b} counts drifted on channel {ch_idx} at cycle {cycle}"
            );
            // Right length, and every entry is a queued request of this
            // bank at its recorded position: the lists partition the queue.
            for (pos, &slot) in queued.slots.iter().enumerate() {
                let q = &mc.slab[slot as usize];
                assert_eq!((q.decoded.bank, q.bank_pos as usize), (b, pos));
                assert_eq!(channel.queue.get(q.queue_pos as usize), Some(&slot));
            }
            // Right length, and every entry is a listed open-row request
            // at its recorded position: the hit list is exactly the hits.
            let open_row = channel.banks[b].open_row();
            for (pos, &slot) in queued.hits.iter().enumerate() {
                let q = &mc.slab[slot as usize];
                assert_eq!(q.hit_pos as usize, pos, "stale hit position");
                assert_eq!(Some(q.decoded.row), open_row, "hit list holds a miss");
                assert_eq!(queued.slots.get(q.bank_pos as usize), Some(&slot));
            }
            if len > 0 {
                occupied |= 1 << b;
            }
        }
        assert_eq!(channel.occupied, occupied, "occupied-bank mask drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn controller(kind: PolicyKind) -> MemoryController {
        MemoryController::new(DramConfig::cmp_study(), kind.instantiate())
    }

    fn run_until_complete(mc: &mut MemoryController, n: usize, max_cycles: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        for cycle in 0..max_cycles {
            mc.tick_into(cycle, &mut done);
            if done.len() >= n {
                break;
            }
        }
        done
    }

    #[test]
    fn single_request_completes_with_miss_latency() {
        let mut mc = controller(PolicyKind::FrFcfs);
        mc.try_enqueue(MemoryRequest::read(1, SourceId(0), 0, 0))
            .unwrap();
        let done = run_until_complete(&mut mc, 1, 1000);
        assert_eq!(done.len(), 1);
        let t = &mc.config().timing;
        // tRCD + tCL + burst.
        assert_eq!(
            done[0].finish,
            t.t_rcd + t.t_cl + mc.config().burst_cycles()
        );
        assert_eq!(mc.stats().total_served(), 1);
        assert_eq!(mc.pending(), 0);
    }

    #[test]
    fn sequential_stream_hits_rows() {
        let mut mc = controller(PolicyKind::FrFcfs);
        // Same channel (stride = channels * 64), same row.
        let stride = 64 * mc.config().channels as u64;
        for i in 0..16u64 {
            mc.try_enqueue(MemoryRequest::read(i, SourceId(0), i * stride, 0))
                .unwrap();
        }
        let done = run_until_complete(&mut mc, 16, 10_000);
        assert_eq!(done.len(), 16);
        let s = &mc.stats().per_source[&SourceId(0)];
        assert_eq!(s.row_misses, 1, "only the first access misses");
        assert_eq!(s.row_hits, 15);
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let mut mc = controller(PolicyKind::Fcfs);
        let cap = mc.config().queue_capacity;
        let stride = 64 * mc.config().channels as u64; // all to channel 0
        let mut accepted = 0;
        for i in 0..(cap as u64 + 10) {
            if mc
                .try_enqueue(MemoryRequest::read(i, SourceId(0), i * stride, 0))
                .is_ok()
            {
                accepted += 1;
            }
        }
        assert_eq!(accepted, cap);
        assert_eq!(mc.stats().per_source[&SourceId(0)].rejected, 10);
    }

    #[test]
    fn channels_interleave_for_sequential_addresses() {
        let mut mc = controller(PolicyKind::FrFcfs);
        for i in 0..4u64 {
            mc.try_enqueue(MemoryRequest::read(i, SourceId(0), i * 64, 0))
                .unwrap();
        }
        // All four channels can issue in the same cycle.
        mc.tick_into(0, &mut Vec::new());
        assert_eq!(mc.pending(), 0);
    }

    #[test]
    fn bus_serializes_same_channel_transfers() {
        let mut mc = controller(PolicyKind::FrFcfs);
        let stride = 64 * mc.config().channels as u64;
        for i in 0..8u64 {
            mc.try_enqueue(MemoryRequest::read(i, SourceId(0), i * stride, 0))
                .unwrap();
        }
        let done = run_until_complete(&mut mc, 8, 10_000);
        let mut finishes: Vec<u64> = done.iter().map(|c| c.finish).collect();
        finishes.sort_unstable();
        let burst = mc.config().burst_cycles();
        for w in finishes.windows(2) {
            assert!(w[1] - w[0] >= burst, "transfers overlap on the bus");
        }
    }

    #[test]
    fn simultaneous_completions_arrive_by_id_then_source() {
        let mut mc = controller(PolicyKind::FrFcfs);
        // Line i maps to channel i: one row miss per channel, all issued in
        // cycle 0, all finishing together. Ids collide across sources, and
        // the channel order is not the delivery order.
        let issued = [(7, 0), (5, 2), (5, 1), (9, 0)];
        for (line, &(id, source)) in issued.iter().enumerate() {
            let req = MemoryRequest::read(id, SourceId(source), line as u64 * 64, 0);
            mc.try_enqueue(req).unwrap();
        }
        let done = run_until_complete(&mut mc, issued.len(), 1_000);
        let t = &mc.config().timing;
        let finish = t.t_rcd + t.t_cl + mc.config().burst_cycles();
        let order: Vec<_> = done
            .iter()
            .map(|c| (c.finish, c.request_id, c.source.0))
            .collect();
        assert_eq!(
            order,
            [
                (finish, 5, 1),
                (finish, 5, 2),
                (finish, 7, 0),
                (finish, 9, 0)
            ]
        );
    }

    #[test]
    fn pending_per_source_tracks_queue() {
        let mut mc = controller(PolicyKind::Fcfs);
        mc.try_enqueue(MemoryRequest::read(0, SourceId(3), 0, 0))
            .unwrap();
        mc.try_enqueue(MemoryRequest::read(1, SourceId(3), 64, 0))
            .unwrap();
        assert_eq!(mc.pending_for(SourceId(3)), 2);
        run_until_complete(&mut mc, 2, 1000);
        assert_eq!(mc.pending_for(SourceId(3)), 0);
    }

    #[test]
    fn all_policies_drain_a_mixed_queue() {
        for kind in PolicyKind::all() {
            let mut mc = controller(kind);
            for i in 0..64u64 {
                let src = SourceId((i % 4) as usize);
                mc.try_enqueue(MemoryRequest::read(i, src, i * 64 * 7919, 0))
                    .unwrap();
            }
            let done = run_until_complete(&mut mc, 64, 100_000);
            assert_eq!(done.len(), 64, "{kind} failed to drain");
        }
    }

    #[test]
    fn recorder_reconciles_with_aggregate_stats() {
        let mut mc = controller(PolicyKind::FrFcfs);
        mc.record_epochs(64);
        for i in 0..32u64 {
            mc.try_enqueue(MemoryRequest::read(
                i,
                SourceId((i % 2) as usize),
                i * 64 * 131,
                0,
            ))
            .unwrap();
        }
        run_until_complete(&mut mc, 32, 10_000);
        let report = mc.take_report().expect("epoch recorder reports");
        assert_eq!(report.total_bytes(), mc.stats().total_bytes());
        let sched = &mc.stats().scheduler;
        let issued: u64 = report.epochs.iter().map(|e| e.issued).sum();
        let idle: u64 = report.epochs.iter().map(|e| e.idle).sum();
        assert_eq!(issued, sched.issued);
        assert_eq!(idle, sched.idle);
        let hits: u64 = report.epochs.iter().map(|e| e.row_hits).sum();
        let all_hits: u64 = mc.stats().per_source.values().map(|s| s.row_hits).sum();
        assert_eq!(hits, all_hits);
        assert_eq!(report.sources(), vec![0, 1]);
    }

    #[test]
    fn stats_latency_includes_queueing() {
        let mut mc = controller(PolicyKind::Fcfs);
        let stride = 64 * mc.config().channels as u64;
        for i in 0..4u64 {
            mc.try_enqueue(MemoryRequest::read(i, SourceId(0), i * stride, 0))
                .unwrap();
        }
        run_until_complete(&mut mc, 4, 10_000);
        let s = &mc.stats().per_source[&SourceId(0)];
        // The last request waited for three predecessors.
        assert!(s.max_latency > s.avg_latency() as u64 / 2);
        assert!(s.max_latency >= 3 * mc.config().burst_cycles());
    }

    /// The address of `column` of `row` in `bank` of channel 0 under the
    /// default mapping.
    fn addr_in(mc: &MemoryController, bank: usize, row: u64, column: u64) -> u64 {
        let config = mc.config();
        let (channels, banks) = (config.channels as u64, config.banks_per_channel as u64);
        let bank_raw = (bank as u64 ^ row) % banks;
        let blk = (row * banks + bank_raw) * config.columns_per_row() + column;
        let addr = blk * channels * u64::from(config.line_bytes);
        let d = mc.decoder.decode(addr);
        assert_eq!((d.channel, d.bank, d.row), (0, bank, row));
        addr
    }

    /// Ticks `mc` through `cycles`, dropping completions.
    fn tick_through(mc: &mut MemoryController, cycles: std::ops::Range<u64>) {
        let mut done = Vec::new();
        for cycle in cycles {
            mc.tick_into(cycle, &mut done);
            done.clear();
        }
    }

    #[test]
    fn refresh_empties_every_hit_list() {
        let mut mc = controller(PolicyKind::FrFcfs);
        let t_refi = mc.config().timing.t_refi;
        let banks = mc.config().banks_per_channel;
        let mut id = 0u64;
        let mut hits_before = 0;
        for cycle in 0..=t_refi {
            // Keep every bank of channel 0 streaming hits to one row.
            for bank in 0..banks {
                let addr = addr_in(&mc, bank, 5, id % 64);
                if mc
                    .try_enqueue(MemoryRequest::read(id, SourceId(bank % 3), addr, cycle))
                    .is_ok()
                {
                    id += 1;
                }
            }
            if cycle == t_refi {
                hits_before = mc.channels[0]
                    .bank_queues
                    .iter()
                    .map(|q| q.hits.len())
                    .sum();
            }
            mc.tick_into(cycle, &mut Vec::new());
        }
        assert!(hits_before > 0, "no queued hits before the refresh");
        for (b, queued) in mc.channels[0].bank_queues.iter().enumerate() {
            assert_eq!(mc.channels[0].banks[b].open_row(), None);
            assert!(queued.hits.is_empty(), "bank {b} kept {:?}", queued.hits);
        }
        // The former hits are still queued, now as misses.
        assert!(mc.channels[0].queue.len() >= hits_before);
    }

    #[test]
    fn conflict_after_the_row_streak_cap_rebuilds_the_hit_list() {
        let mut mc = controller(PolicyKind::Atlas);
        let (row_a, row_b) = (3, 9);
        let start = 10_000;
        for i in 0..70 {
            let addr = addr_in(&mc, 0, row_a, i % 64);
            mc.try_enqueue(MemoryRequest::read(i, SourceId(1), addr, start))
                .unwrap();
        }
        // The first request opens row A.
        tick_through(&mut mc, start..start + 1);
        // A request for row B waiting far past ATLAS's starvation threshold
        // ranks first as soon as it may issue, plus three younger row-B
        // requests that become hits once it opens row B.
        let old = MemoryRequest::read(100, SourceId(0), addr_in(&mc, 0, row_b, 0), 0);
        mc.try_enqueue(old).unwrap();
        for i in 0..3 {
            let addr = addr_in(&mc, 0, row_b, 1 + i);
            mc.try_enqueue(MemoryRequest::read(101 + i, SourceId(2), addr, start))
                .unwrap();
        }
        let mut cycle = start + 1;
        while mc
            .stats()
            .per_source
            .get(&SourceId(0))
            .map_or(0, |s| s.served)
            == 0
        {
            tick_through(&mut mc, cycle..cycle + 1);
            cycle += 1;
            assert!(cycle < start + 5_000, "the conflict never issued");
        }
        // Row A's pending hits shielded it for exactly the streak cap.
        let a = &mc.stats().per_source[&SourceId(1)];
        assert_eq!((a.row_misses, a.row_hits), (1, ROW_STREAK_CAP));
        assert_eq!(mc.stats().per_source[&SourceId(0)].row_conflicts, 1);
        let channel = &mc.channels[0];
        assert_eq!(channel.banks[0].open_row(), Some(row_b));
        let queued = &channel.bank_queues[0];
        let mut hit_ids: Vec<u64> = queued
            .hits
            .iter()
            .map(|&slot| mc.slab[slot as usize].req.id)
            .collect();
        hit_ids.sort_unstable();
        assert_eq!(hit_ids, [101, 102, 103]);
        assert_eq!(queued.slots.len(), 3 + 70 - 1 - ROW_STREAK_CAP as usize);
    }

    #[test]
    fn a_bank_inside_its_twtr_window_offers_only_its_writes() {
        let mut mc = controller(PolicyKind::FrFcfs);
        let mut first = MemoryRequest::read(0, SourceId(0), addr_in(&mc, 0, 4, 0), 0);
        first.kind = ReqKind::Write;
        mc.try_enqueue(first).unwrap();
        tick_through(&mut mc, 0..1);
        assert_eq!(mc.pending(), 0);
        // An older read and a younger write, both hits on the open row.
        mc.try_enqueue(MemoryRequest::read(
            1,
            SourceId(0),
            addr_in(&mc, 0, 4, 1),
            1,
        ))
        .unwrap();
        let mut write = MemoryRequest::read(2, SourceId(1), addr_in(&mc, 0, 4, 2), 2);
        write.kind = ReqKind::Write;
        mc.try_enqueue(write).unwrap();
        let offered = |mc: &MemoryController, cycle| {
            let mut ids = Vec::new();
            mc.visit_issuable(0, cycle, |q, row_hit| ids.push((q.req.id, row_hit)));
            ids.sort_unstable();
            ids
        };
        let bank = mc.channels[0].banks[0];
        let cycle = (1..1_000).find(|&c| bank.is_ready(c)).unwrap();
        assert!(!bank.is_ready_for(ReqKind::Read, cycle), "no tWTR window");
        assert_eq!(offered(&mc, cycle), [(2, true)]);
        let after = (cycle..1_000)
            .find(|&c| bank.is_ready_for(ReqKind::Read, c))
            .unwrap();
        assert_eq!(offered(&mc, after), [(1, true), (2, true)]);
        // FR-FCFS would take the older read; the window leaves the write.
        tick_through(&mut mc, 1..cycle + 1);
        assert_eq!(mc.stats().per_source[&SourceId(1)].served, 1);
        assert_eq!(mc.pending_for(SourceId(0)), 1);
    }

    /// SMS behind a counter of its target picks.
    #[derive(Debug)]
    struct CountedSms {
        sms: crate::policy::Sms,
        picks: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl SchedulingPolicy for CountedSms {
        fn name(&self) -> &'static str {
            self.sms.name()
        }
        fn ranking(&self) -> crate::policy::Ranking<'_> {
            self.sms.ranking()
        }
        fn pick_target(&mut self, issuable: &[SourceId], pending_per_source: &[usize]) {
            self.picks
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.sms.pick_target(issuable, pending_per_source);
        }
        fn on_enqueue(&mut self, source: SourceId) {
            self.sms.on_enqueue(source);
        }
        fn on_served(&mut self, source: SourceId, bytes: u64) {
            self.sms.on_served(source, bytes);
        }
        fn on_cycle(&mut self, cycle: u64) {
            self.sms.on_cycle(cycle);
        }
    }

    #[test]
    fn sms_draws_only_on_opportunities_with_an_issuable_request() {
        let picks = std::sync::Arc::default();
        let policy = CountedSms {
            sms: crate::policy::Sms::new(0.5, 3),
            picks: std::sync::Arc::clone(&picks),
        };
        let mut mc = MemoryController::new(DramConfig::cmp_study(), Box::new(policy));
        let mut rng = SmallRng::seed_from_u64(9);
        let mut done = Vec::new();
        for cycle in 0..6_000u64 {
            // Bursts to a few banks, then quiet spells.
            if cycle % 400 < 100 {
                let line = rng.gen_range(0..4_096u64) * 7;
                let source = SourceId(rng.gen_range(0..6usize));
                let _ = mc.try_enqueue(MemoryRequest::read(cycle, source, line * 64, cycle));
            }
            mc.tick_into(cycle, &mut done);
        }
        let sched = &mc.stats().scheduler;
        assert!(sched.no_candidate > 0 && sched.idle > 0, "{sched:?}");
        // One target pick (one RNG draw) per issue: none when nothing could
        // issue, and none on idle or bus-blocked cycles.
        assert_eq!(
            picks.load(std::sync::atomic::Ordering::Relaxed),
            sched.issued
        );
    }

    proptest! {
        /// Differential oracle: random bursty traffic from 1–20 sources
        /// (some with sparse ids, past the end of every policy table) over
        /// random geometries and every policy. Each scheduling decision
        /// inside `tick_into` is checked against the full-queue rescan and
        /// the candidate-list pick, and every per-bank list and count
        /// against a recount (`reference::check`).
        #[test]
        fn incremental_candidates_match_the_full_rescan(
            channels in 1usize..=8,
            banks in 2usize..=16,
            write_pct in 0u32..=50,
            refresh in any::<bool>(),
            policy in 0usize..5,
            capacity in 4usize..=48,
            n_sources in 1usize..=20,
            sparse in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // Dense ids 0..n, or with the last two replaced by 63 and 1000.
            let mut sources: Vec<usize> = (0..n_sources).collect();
            if sparse {
                for (s, id) in sources.iter_mut().rev().zip([1_000, 63]) {
                    *s = id;
                }
            }
            let mut config = DramConfig::cmp_study();
            config.channels = channels;
            config.banks_per_channel = banks;
            config.queue_capacity = capacity;
            // Refresh on runs past its first deadline.
            let horizon = if refresh {
                config.timing.t_refi + 1_000
            } else {
                config.timing.t_refi = 0;
                4_000
            };
            let kind = PolicyKind::all()[policy];
            let mut mc = MemoryController::new(config, kind.instantiate());
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut done = Vec::new();
            let mut id = 0u64;
            for cycle in 0..horizon {
                for _ in 0..rng.gen_range(0..=channels) {
                    // Mostly a small footprint (row hits and conflicts),
                    // sometimes a far line (misses).
                    let line = if rng.gen_bool(0.8) {
                        rng.gen_range(0..2_048u64)
                    } else {
                        rng.gen_range(0..1u64 << 22)
                    };
                    let source = SourceId(sources[rng.gen_range(0..n_sources)]);
                    let mut req = MemoryRequest::read(id, source, line * 64, cycle);
                    if rng.gen_range(0..100u32) < write_pct {
                        req.kind = ReqKind::Write;
                    }
                    id += 1;
                    let _ = mc.try_enqueue(req);
                }
                mc.tick_into(cycle, &mut done);
                done.clear();
            }
            let sched = &mc.stats().scheduler;
            prop_assert!(sched.issued > 0 && sched.no_candidate > 0, "{sched:?}");
        }

        /// The sorted completion queue delivers what a binary heap of the
        /// same `(finish, id, source)` entries pops, in the same order:
        /// random pushes (mostly just ahead of the cycle, sometimes far
        /// ahead; ids colliding across sources) between drains of every due
        /// entry as the cycle advances.
        #[test]
        fn completion_queue_delivers_like_a_binary_heap(
            steps in 1usize..600,
            spread in 1u64..200,
            seed in any::<u64>(),
        ) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut queue = CompletionQueue::default();
            let mut heap = BinaryHeap::new();
            let mut cycle = 0u64;
            for _ in 0..steps {
                for _ in 0..rng.gen_range(0..4) {
                    let ahead = if rng.gen_bool(0.9) {
                        rng.gen_range(0..spread)
                    } else {
                        rng.gen_range(0..20 * spread)
                    };
                    let entry = (
                        cycle + ahead,
                        rng.gen_range(0..16u64),
                        rng.gen_range(0..4usize),
                    );
                    queue.push(entry);
                    heap.push(Reverse(entry));
                }
                cycle += rng.gen_range(0..3u64);
                let mut expected = Vec::new();
                while let Some(&Reverse(entry)) = heap.peek() {
                    if entry.0 > cycle {
                        break;
                    }
                    heap.pop();
                    expected.push(entry);
                }
                let delivered: Vec<_> = std::iter::from_fn(|| queue.pop_due(cycle)).collect();
                prop_assert_eq!(delivered, expected);
            }
            prop_assert_eq!(queue.0.len(), heap.len());
        }
    }
}

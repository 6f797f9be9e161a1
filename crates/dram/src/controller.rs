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

use crate::bank::Bank;
use crate::config::DramConfig;
use crate::conformance::{CmdKind, CommandRecord, ConformanceChecker, ConformanceReport};
use crate::mapping::AddressMapping;
use crate::policy::{Candidate, ScheduleInput, SchedulingPolicy};
use crate::request::{DecodedAddr, MemoryRequest, ReqKind, SourceId};
use crate::stats::MemoryStats;
use crate::timing::{DramTiming, RowOutcome};
use pccs_telemetry::{EpochRecorder, RowEvent, StallEvent, TelemetryReport};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// An in-flight request plus its decoded DRAM coordinates. Stored in the
/// controller-level slab; channel queues and bank lists hold slot indices
/// into it, and the entry records its position in both.
#[derive(Debug, Clone, Copy)]
struct QueuedRequest {
    req: MemoryRequest,
    decoded: DecodedAddr,
    /// Position in `ChannelState::queue`: the policy's `queue_idx`.
    queue_pos: u32,
    /// Position in its bank's `BankQueue::slots`.
    bank_pos: u32,
}

/// The queued requests of one bank and the counts the scheduler gates on.
/// Kept exact on enqueue, issue and refresh, so a scheduling opportunity
/// never rescans the channel queue.
#[derive(Debug, Default)]
struct BankQueue {
    /// Slab slots of the bank's queued requests, in no particular order.
    slots: Vec<u32>,
    /// Queued writes (the rest of `slots` are reads).
    writes: u32,
    /// Queued requests for the bank's open row (row hits if issued now).
    hits: u32,
}

impl BankQueue {
    /// Queued requests for `row`, counted from scratch.
    fn count_row(&self, slab: &[QueuedRequest], row: u64) -> u32 {
        self.slots
            .iter()
            .filter(|&&slot| slab[slot as usize].decoded.row == row)
            .count() as u32
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
    /// Removes the request at `queue_idx` from the queue and from its bank
    /// list, fixing up the recorded position of whichever entry each
    /// `swap_remove` moved, and returns its slab slot.
    fn dequeue(&mut self, slab: &mut [QueuedRequest], queue_idx: usize) -> u32 {
        let slot = self.queue.swap_remove(queue_idx);
        if let Some(&moved) = self.queue.get(queue_idx) {
            slab[moved as usize].queue_pos = queue_idx as u32;
        }
        let q = slab[slot as usize];
        let bank = &mut self.bank_queues[q.decoded.bank];
        let pos = q.bank_pos as usize;
        if pos < bank.slots.len() {
            bank.slots.swap_remove(pos);
            if let Some(&moved) = bank.slots.get(pos) {
                slab[moved as usize].bank_pos = pos as u32;
            }
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
    mapping: AddressMapping,
    policy: Box<dyn SchedulingPolicy>,
    channels: Vec<ChannelState>,
    /// Slab of in-flight queued requests; channel queues index into it, so
    /// enqueue/issue never reallocate per request in steady state.
    slab: Vec<QueuedRequest>,
    /// Free slot indices in `slab`.
    free_slots: Vec<u32>,
    /// Reusable candidate buffer for `schedule_channel` (no per-cycle
    /// allocation on the hot path).
    cand_scratch: Vec<Candidate>,
    stats: MemoryStats,
    /// Queued requests per source, indexed by `SourceId.0`.
    pending_per_source: Vec<usize>,
    completions: BinaryHeap<Reverse<(u64, u64, usize)>>,
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
        let slab_capacity = config.queue_capacity * config.channels;
        Self {
            config,
            mapping: AddressMapping::default(),
            policy,
            channels,
            slab: Vec::with_capacity(slab_capacity),
            free_slots: Vec::new(),
            cand_scratch: Vec::new(),
            stats: MemoryStats::new(),
            pending_per_source: Vec::new(),
            completions: BinaryHeap::new(),
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

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Consumes the controller, returning its accumulated statistics.
    pub fn into_stats(self) -> MemoryStats {
        self.stats
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
        let decoded = self.mapping.decode(req.addr, &self.config);
        let channel = &mut self.channels[decoded.channel];
        if channel.queue.len() >= self.config.queue_capacity {
            self.stats.source_mut(req.source).rejected += 1;
            return Err(req);
        }
        self.stats.source_mut(req.source).enqueued += 1;
        *req.source.slot(&mut self.pending_per_source, 0) += 1;
        self.policy.on_enqueue(req.source);
        let bank = &mut channel.bank_queues[decoded.bank];
        let entry = QueuedRequest {
            req,
            decoded,
            queue_pos: channel.queue.len() as u32,
            bank_pos: bank.slots.len() as u32,
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
            bank.hits += 1;
        }
        channel.occupied |= 1u128 << decoded.bank;
        let depth = channel.queue.len() as u64;
        if depth > self.stats.scheduler.queue_hwm {
            self.stats.scheduler.queue_hwm = depth;
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
        self.stats.elapsed_cycles = self.stats.elapsed_cycles.max(cycle + 1);
        if self.recorder.is_some() {
            let depth = self.pending();
            if let Some(r) = self.recorder.as_mut() {
                r.on_tick(cycle, depth);
            }
        }

        for ch_idx in 0..self.channels.len() {
            self.schedule_channel(ch_idx, cycle);
        }

        while let Some(&Reverse((finish, id, source))) = self.completions.peek() {
            if finish > cycle {
                break;
            }
            self.completions.pop();
            out.push(Completion {
                request_id: id,
                source: SourceId(source),
                finish,
            });
        }
    }

    /// Appends the requests of channel `ch_idx` that are schedulable at
    /// `cycle` to `out`, grouped by bank. The gates are evaluated once per
    /// occupied bank; only the lists of banks that can issue are visited.
    fn collect_candidates(&self, ch_idx: usize, cycle: u64, out: &mut Vec<Candidate>) {
        let channel = &self.channels[ch_idx];
        let timing = &self.config.timing;
        // Open-page awareness: while a bank still has queued row hits for
        // its open row, realistic schedulers do not close that row for a
        // conflicting request — the pending hits cost tCCD each, the
        // precharge+activate costs an order of magnitude more. A per-row
        // hit budget bounds the shielding so conflicting requests cannot
        // starve (row-hit streak cap, as in real MCs).
        let shield_rows = self.policy.respects_open_rows();
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
            let misses = (queued.slots.len() as u32).saturating_sub(queued.hits);
            let shielded =
                shield_rows && queued.hits > 0 && bank.hits_since_open() < ROW_STREAK_CAP;
            let misses_ok = misses > 0
                && !shielded
                && act_is_legal(
                    &channel.acts,
                    bank.next_act_at(cycle, timing),
                    self.config.bank_group(b),
                    timing,
                );
            if queued.hits == 0 && !misses_ok {
                continue;
            }
            let open_row = bank.open_row();
            for &slot in &queued.slots {
                let q = &self.slab[slot as usize];
                let row_hit = open_row == Some(q.decoded.row);
                if (row_hit || misses_ok) && (read_ready || q.req.kind != ReqKind::Read) {
                    out.push(Candidate {
                        queue_idx: q.queue_pos as usize,
                        source: q.req.source,
                        row_hit,
                        arrival: q.req.arrival,
                        bank: b,
                        row: q.decoded.row,
                    });
                }
            }
        }
    }

    fn schedule_channel(&mut self, ch_idx: usize, cycle: u64) {
        // The data bus is modelled as a rate limiter: at most one line may
        // *begin* service per burst window, which caps sustained channel
        // throughput at exactly the bus rate while letting transfers from
        // different banks complete out of order (a row conflict delays only
        // its own bank, not the channel pipeline).
        let burst = self.config.burst_cycles();
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
                    queued.hits = 0;
                }
                channel.next_refresh_at = channel.next_refresh_at.saturating_add(t_refi);
            }
        }
        {
            let channel = &self.channels[ch_idx];
            if channel.queue.is_empty() {
                self.stats.scheduler.idle += 1;
                if let Some(r) = self.recorder.as_mut() {
                    r.on_stall(cycle, StallEvent::Idle);
                }
                return;
            }
            if cycle < channel.next_issue_at {
                self.stats.scheduler.bus_blocked += 1;
                if let Some(r) = self.recorder.as_mut() {
                    r.on_stall(cycle, StallEvent::BusBlocked);
                }
                return;
            }
        }

        let mut candidates = std::mem::take(&mut self.cand_scratch);
        candidates.clear();
        self.collect_candidates(ch_idx, cycle, &mut candidates);
        #[cfg(test)]
        reference::check(self, ch_idx, cycle, &candidates);
        if candidates.is_empty() {
            self.cand_scratch = candidates;
            self.stats.scheduler.no_candidate += 1;
            if let Some(r) = self.recorder.as_mut() {
                r.on_stall(cycle, StallEvent::NoCandidate);
            }
            return;
        }

        let chosen = {
            let input = ScheduleInput {
                cycle,
                candidates: &candidates,
                pending_per_source: &self.pending_per_source,
            };
            self.policy.choose(&input)
        };
        let queue_idx = chosen.map(|c| candidates[c].queue_idx);
        self.cand_scratch = candidates;
        let Some(queue_idx) = queue_idx else {
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
        let queued = &mut channel.bank_queues[q.decoded.bank];
        queued.hits = if issue.outcome == RowOutcome::Hit {
            queued.hits.saturating_sub(1)
        } else {
            // A new row opened: recount the bank's list against it.
            queued.count_row(&self.slab, q.decoded.row)
        };
        let finish = issue.data_ready + burst;
        channel.next_issue_at = cycle + burst;
        if let Some(act_at) = issue.act_at {
            let horizon = self.config.timing.t_faw.max(self.config.timing.t_rrd_l);
            channel.acts.retain(|&(a, _)| a + horizon > cycle);
            channel
                .acts
                .push((act_at, self.config.bank_group(q.decoded.bank)));
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
        self.stats
            .record_served(q.req.source, u64::from(q.req.bytes), issue.outcome, latency);
        self.stats.scheduler.issued += 1;
        if let Some(r) = self.recorder.as_mut() {
            r.on_stall(cycle, StallEvent::Issued);
            let row = match issue.outcome {
                RowOutcome::Hit => RowEvent::Hit,
                RowOutcome::Miss => RowEvent::Miss,
                RowOutcome::Conflict => RowEvent::Conflict,
            };
            r.on_serve(cycle, q.req.source.0, u64::from(q.req.bytes), row);
        }
        self.completions
            .push(Reverse((finish, q.req.id, q.req.source.0)));
    }
}

/// The full-queue rescan that the incremental per-bank state replaced,
/// kept as the differential oracle: in test builds every candidate
/// collection is checked against it.
#[cfg(test)]
mod reference {
    use super::*;

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

    /// The rescan's candidate set as sorted `(queue_idx, row_hit)` pairs.
    pub(super) fn candidates(
        mc: &MemoryController,
        ch_idx: usize,
        cycle: u64,
    ) -> Vec<(usize, bool)> {
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
                let row_hit = channel.banks[q.decoded.bank].open_row() == Some(q.decoded.row);
                out.push((i, row_hit));
            }
        }
        out
    }

    /// Panics unless `candidates` is the rescan's candidate set and every
    /// per-bank list, count and recorded position of channel `ch_idx`
    /// equals a from-scratch recount.
    pub(super) fn check(
        mc: &MemoryController,
        ch_idx: usize,
        cycle: u64,
        candidates: &[Candidate],
    ) {
        let channel = &mc.channels[ch_idx];
        let mut got: Vec<(usize, bool)> = candidates
            .iter()
            .map(|c| (c.queue_idx, c.row_hit))
            .collect();
        got.sort_unstable();
        assert_eq!(
            got,
            self::candidates(mc, ch_idx, cycle),
            "candidate sets differ on channel {ch_idx} at cycle {cycle}"
        );
        for c in candidates {
            let q = &mc.slab[channel.queue[c.queue_idx] as usize];
            assert_eq!(
                (c.source, c.arrival, c.bank, c.row),
                (q.req.source, q.req.arrival, q.decoded.bank, q.decoded.row)
            );
        }

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
                (queued.slots.len() as u32, queued.writes, queued.hits),
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

    proptest! {
        /// Differential oracle: random bursty traffic over random
        /// geometries and every policy. Each candidate collection inside
        /// `tick_into` is checked against the full-queue rescan, and every
        /// per-bank list and count against a recount (`reference::check`).
        #[test]
        fn incremental_candidates_match_the_full_rescan(
            channels in 1usize..=8,
            banks in 2usize..=16,
            write_pct in 0u32..=50,
            refresh in any::<bool>(),
            policy in 0usize..5,
            capacity in 4usize..=48,
            seed in any::<u64>(),
        ) {
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
                    let source = SourceId(rng.gen_range(0..4usize));
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
    }
}

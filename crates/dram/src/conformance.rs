//! DDR protocol conformance sanitizer.
//!
//! The controller model collapses the PRE/ACT/CAS sequence of one request
//! into a single service window, which makes it fast — and makes it easy
//! for a scheduling change to silently emit a command stream no real DDR4
//! or LPDDR4X part would accept. Since the paper's three-region slowdown
//! curves emerge from the memory controller's row-hit prioritization and
//! fairness mechanisms (§2.3), a timing-illegal stream over- or
//! under-states interference and corrupts every downstream number.
//!
//! [`ConformanceChecker`] is an observer attached to the controller (see
//! [`crate::controller::MemoryController::enable_conformance`]). The
//! controller reports every implied command — PRECHARGE, ACTIVATE, RD, WR
//! and all-bank REFRESH — as a [`CommandRecord`]; the checker replays the
//! stream in cycle order against *reference* timing constraints and
//! row-state rules, producing a structured [`ConformanceReport`].
//!
//! Checked invariants (per bank unless noted):
//!
//! * row-state legality: no ACT on an open row, no RD/WR to a closed or
//!   different row, REF only with every bank of the channel precharged;
//! * tRCD (ACT→CAS), tRP (PRE→ACT / PRE→REF), tRAS (ACT→PRE),
//!   tWR (end of write data→PRE), tCCD (CAS→CAS), tWTR (end of write
//!   data→RD);
//! * tRRD_S / tRRD_L (ACT→ACT across / within bank groups, per channel)
//!   and tFAW (at most four ACTs in any sliding window, per channel);
//! * tRFC (no command inside a refresh window) and the refresh cadence
//!   (consecutive REFs no further apart than two tREFI).
//!
//! Out of scope, documented deviations of the bank-state model: data-bus
//! transfer overlap across banks (bus occupancy is modelled as issue-rate
//! pacing, uniform across sources), cross-bank tCCD (the bus pacing gap
//! equals tCCD_S on both presets), and tRTP (read-to-precharge, subsumed
//! by the modelled bank occupancy window).
//!
//! The checker buffers records and replays them at [`ConformanceChecker::finish`]
//! because the controller reports commands at *issue* time with their
//! (possibly future) command-bus timestamps; sorting once at the end is
//! cheaper and simpler than a reorder buffer. Memory cost is one small
//! record per DRAM command, which is why the observer is opt-in.
//!
//! [`CommandRecord`]: crate::conformance::CommandRecord

use crate::config::DramConfig;
use crate::timing::DramTiming;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Cap on the number of violations kept verbatim in the report; the
/// counters keep counting past it.
const MAX_STORED_VIOLATIONS: usize = 256;

/// One DRAM command of the reconstructed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmdKind {
    /// Close the bank's open row.
    Pre,
    /// Open a row.
    Act,
    /// Column read.
    Rd,
    /// Column write.
    Wr,
    /// All-bank refresh (channel scope; the `bank` field is meaningless).
    RefAb,
}

impl CmdKind {
    /// Short mnemonic, as printed in reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmdKind::Pre => "PRE",
            CmdKind::Act => "ACT",
            CmdKind::Rd => "RD",
            CmdKind::Wr => "WR",
            CmdKind::RefAb => "REFab",
        }
    }
}

/// One observed command with its command-bus timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandRecord {
    /// Command-clock cycle the command occupies the command bus.
    pub cycle: u64,
    /// Channel the command was issued on.
    pub channel: usize,
    /// Bank within the channel (ignored for [`CmdKind::RefAb`]).
    pub bank: usize,
    /// The command.
    pub kind: CmdKind,
    /// Target row for ACT/RD/WR.
    pub row: Option<u64>,
}

/// The class of a detected protocol violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ViolationKind {
    /// ACT issued while the bank already had an open row.
    ActOnOpenRow,
    /// RD/WR issued to a precharged bank.
    CasClosedRow,
    /// RD/WR issued to a different row than the open one.
    CasWrongRow,
    /// ACT→CAS spacing under tRCD.
    TRcd,
    /// PRE→ACT or PRE→REF spacing under tRP.
    TRp,
    /// ACT→PRE spacing under tRAS.
    TRas,
    /// End of write data→PRE spacing under tWR.
    TWr,
    /// Same-bank CAS→CAS spacing under tCCD.
    TCcd,
    /// End of write data→RD spacing under tWTR.
    TWtr,
    /// Cross-group ACT→ACT spacing under tRRD_S.
    TRrdS,
    /// Same-group ACT→ACT spacing under tRRD_L.
    TRrdL,
    /// More than four ACTs inside one tFAW window.
    TFaw,
    /// A command landed inside a refresh window (tRFC).
    CmdDuringRefresh,
    /// REF issued while a bank of the channel still had an open row.
    RefreshNotPrecharged,
    /// Consecutive refreshes further apart than two tREFI.
    RefreshLate,
}

impl ViolationKind {
    /// Stable machine-readable identifier.
    pub fn id(self) -> &'static str {
        match self {
            ViolationKind::ActOnOpenRow => "act-on-open-row",
            ViolationKind::CasClosedRow => "cas-closed-row",
            ViolationKind::CasWrongRow => "cas-wrong-row",
            ViolationKind::TRcd => "trcd",
            ViolationKind::TRp => "trp",
            ViolationKind::TRas => "tras",
            ViolationKind::TWr => "twr",
            ViolationKind::TCcd => "tccd",
            ViolationKind::TWtr => "twtr",
            ViolationKind::TRrdS => "trrd-s",
            ViolationKind::TRrdL => "trrd-l",
            ViolationKind::TFaw => "tfaw",
            ViolationKind::CmdDuringRefresh => "cmd-during-refresh",
            ViolationKind::RefreshNotPrecharged => "refresh-not-precharged",
            ViolationKind::RefreshLate => "refresh-late",
        }
    }
}

/// One detected violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// What was violated.
    pub kind: ViolationKind,
    /// Cycle of the offending command.
    pub cycle: u64,
    /// Channel of the offending command.
    pub channel: usize,
    /// Bank of the offending command.
    pub bank: usize,
    /// The offending command.
    pub cmd: CmdKind,
    /// Minimum legal spacing in cycles (0 for state-legality violations).
    pub required: u64,
    /// Observed spacing in cycles (0 for state-legality violations).
    pub actual: u64,
}

impl Violation {
    /// One-line human-readable rendering.
    pub fn render(&self) -> String {
        format!(
            "cycle {:>8}  ch{} bank{:<2} {:<5} {}: required >= {}, got {}",
            self.cycle,
            self.channel,
            self.bank,
            self.cmd.mnemonic(),
            self.kind.id(),
            self.required,
            self.actual
        )
    }
}

/// The outcome of a conformance run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConformanceReport {
    /// Commands replayed.
    pub commands: u64,
    /// Total violations detected (may exceed `violations.len()`).
    pub total_violations: u64,
    /// First violations, capped to keep reports bounded.
    pub violations: Vec<Violation>,
    /// Violation count per kind id.
    pub per_kind: BTreeMap<String, u64>,
}

impl ConformanceReport {
    /// Whether the stream was fully JEDEC-legal.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Folds another report into this one (multi-controller systems merge
    /// the per-MC reports into a single outcome).
    pub fn merge(&mut self, other: &ConformanceReport) {
        self.commands += other.commands;
        self.total_violations += other.total_violations;
        for v in &other.violations {
            if self.violations.len() >= MAX_STORED_VIOLATIONS {
                break;
            }
            self.violations.push(v.clone());
        }
        for (kind, n) in &other.per_kind {
            *self.per_kind.entry(kind.clone()).or_insert(0) += n;
        }
    }

    /// Multi-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "conformance: {} commands checked, {} violation(s)\n",
            self.commands, self.total_violations
        );
        for (kind, n) in &self.per_kind {
            out.push_str(&format!("  {kind}: {n}\n"));
        }
        for v in &self.violations {
            out.push_str("  ");
            out.push_str(&v.render());
            out.push('\n');
        }
        if self.total_violations > self.violations.len() as u64 {
            out.push_str(&format!(
                "  ... {} more\n",
                self.total_violations - self.violations.len() as u64
            ));
        }
        out
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BankTrack {
    open_row: Option<u64>,
    last_act: Option<u64>,
    last_pre: Option<u64>,
    last_cas: Option<u64>,
    /// End cycle of the last write burst (for tWR / tWTR).
    write_data_end: Option<u64>,
}

#[derive(Debug, Clone, Default)]
struct ChannelTrack {
    /// Recent ACT timestamps with their bank group, pruned to the tFAW
    /// horizon (at most a handful of entries).
    acts: Vec<(u64, usize)>,
    /// Start of the current/most recent refresh window.
    last_ref: Option<u64>,
}

/// The protocol conformance observer.
///
/// Construct with [`ConformanceChecker::new`] to validate a controller
/// against its own timing (guards the scheduling logic), or with
/// [`ConformanceChecker::with_reference`] to validate against an explicit
/// reference timing (catches mis-configured or corrupted timing sets).
#[derive(Debug, Clone)]
pub struct ConformanceChecker {
    timing: DramTiming,
    config: DramConfig,
    records: Vec<CommandRecord>,
}

impl ConformanceChecker {
    /// A checker validating against `config`'s own timing parameters.
    pub fn new(config: &DramConfig) -> Self {
        Self::with_reference(config, config.timing)
    }

    /// A checker validating the emitted stream against an explicit
    /// `reference` timing — e.g. the JEDEC speed-bin values, independent of
    /// whatever (possibly broken) timing the controller schedules with.
    pub fn with_reference(config: &DramConfig, reference: DramTiming) -> Self {
        Self {
            timing: reference,
            config: config.clone(),
            records: Vec::new(),
        }
    }

    /// Records one command. Timestamps may arrive out of order; the stream
    /// is sorted at [`ConformanceChecker::finish`].
    pub fn observe(&mut self, record: CommandRecord) {
        self.records.push(record);
    }

    /// Replays the recorded stream in cycle order and returns the report.
    pub fn finish(&self) -> ConformanceReport {
        let mut records = self.records.clone();
        records.sort_by_key(|r| r.cycle);

        let t = &self.timing;
        let burst = self.config.burst_cycles();
        let mut banks: Vec<Vec<BankTrack>> = (0..self.config.channels)
            .map(|_| vec![BankTrack::default(); self.config.banks_per_channel])
            .collect();
        let mut channels: Vec<ChannelTrack> = vec![ChannelTrack::default(); self.config.channels];

        let mut report = ConformanceReport {
            commands: 0,
            total_violations: 0,
            violations: Vec::new(),
            per_kind: BTreeMap::new(),
        };
        let flag = |report: &mut ConformanceReport, v: Violation| {
            report.total_violations += 1;
            *report.per_kind.entry(v.kind.id().to_owned()).or_insert(0) += 1;
            if report.violations.len() < MAX_STORED_VIOLATIONS {
                report.violations.push(v);
            }
        };
        // Minimum spacing check: `prev + need <= now`, flagged as `kind`.
        let spacing = |now: u64, prev: u64, need: u64| -> Option<(u64, u64)> {
            let got = now.saturating_sub(prev);
            (got < need).then_some((need, got))
        };

        for r in &records {
            report.commands += 1;
            let ch = &mut channels[r.channel];
            let violation = |kind: ViolationKind, required: u64, actual: u64| Violation {
                kind,
                cycle: r.cycle,
                channel: r.channel,
                bank: r.bank,
                cmd: r.kind,
                required,
                actual,
            };

            // No command may land inside a refresh window (tRFC), except
            // the refresh itself.
            if r.kind != CmdKind::RefAb {
                if let Some(start) = ch.last_ref {
                    if r.cycle >= start && r.cycle < start + t.t_rfc {
                        flag(
                            &mut report,
                            violation(ViolationKind::CmdDuringRefresh, t.t_rfc, r.cycle - start),
                        );
                    }
                }
            }

            match r.kind {
                CmdKind::Pre => {
                    let b = &mut banks[r.channel][r.bank];
                    if let (Some(act), true) = (b.last_act, b.open_row.is_some()) {
                        if let Some((need, got)) = spacing(r.cycle, act, t.t_ras) {
                            flag(&mut report, violation(ViolationKind::TRas, need, got));
                        }
                    }
                    if let Some(end) = b.write_data_end {
                        if let Some((need, got)) = spacing(r.cycle, end, t.t_wr) {
                            flag(&mut report, violation(ViolationKind::TWr, need, got));
                        }
                    }
                    b.open_row = None;
                    b.last_pre = Some(r.cycle);
                }
                CmdKind::Act => {
                    let group = self.config.bank_group(r.bank);
                    {
                        let b = &banks[r.channel][r.bank];
                        if b.open_row.is_some() {
                            flag(&mut report, violation(ViolationKind::ActOnOpenRow, 0, 0));
                        }
                        if let Some(pre) = b.last_pre {
                            if let Some((need, got)) = spacing(r.cycle, pre, t.t_rp) {
                                flag(&mut report, violation(ViolationKind::TRp, need, got));
                            }
                        }
                    }
                    // ACT pacing within the channel: tRRD_S/L by group …
                    for &(a, g) in &ch.acts {
                        let gap = r.cycle.abs_diff(a);
                        let (need, kind) = if g == group {
                            (t.t_rrd_l, ViolationKind::TRrdL)
                        } else {
                            (t.t_rrd_s, ViolationKind::TRrdS)
                        };
                        if need > 0 && gap < need {
                            flag(&mut report, violation(kind, need, gap));
                        }
                    }
                    // … and the four-activate window.
                    if t.t_faw > 0 {
                        let mut acts: Vec<u64> = ch.acts.iter().map(|&(a, _)| a).collect();
                        acts.push(r.cycle);
                        acts.sort_unstable();
                        for w in acts.windows(5) {
                            if w[4] - w[0] < t.t_faw {
                                flag(
                                    &mut report,
                                    violation(ViolationKind::TFaw, t.t_faw, w[4] - w[0]),
                                );
                                break;
                            }
                        }
                    }
                    ch.acts.push((r.cycle, group));
                    ch.acts
                        .retain(|&(a, _)| a + t.t_faw.max(t.t_rrd_l) > r.cycle);
                    let b = &mut banks[r.channel][r.bank];
                    b.open_row = r.row;
                    b.last_act = Some(r.cycle);
                }
                CmdKind::Rd | CmdKind::Wr => {
                    let b = &mut banks[r.channel][r.bank];
                    match (b.open_row, r.row) {
                        (None, _) => {
                            flag(&mut report, violation(ViolationKind::CasClosedRow, 0, 0));
                        }
                        (Some(open), Some(row)) if open != row => {
                            flag(&mut report, violation(ViolationKind::CasWrongRow, 0, 0));
                        }
                        _ => {}
                    }
                    if let Some(act) = b.last_act {
                        if let Some((need, got)) = spacing(r.cycle, act, t.t_rcd) {
                            flag(&mut report, violation(ViolationKind::TRcd, need, got));
                        }
                    }
                    if let Some(cas) = b.last_cas {
                        if let Some((need, got)) = spacing(r.cycle, cas, t.t_ccd) {
                            flag(&mut report, violation(ViolationKind::TCcd, need, got));
                        }
                    }
                    if r.kind == CmdKind::Rd {
                        if let Some(end) = b.write_data_end {
                            if let Some((need, got)) = spacing(r.cycle, end, t.t_wtr) {
                                flag(&mut report, violation(ViolationKind::TWtr, need, got));
                            }
                        }
                    } else {
                        // Write data occupies the bus from CAS + CL (the
                        // model approximates CWL with CL) for one burst.
                        b.write_data_end = Some(r.cycle + t.t_cl + burst);
                    }
                    b.last_cas = Some(r.cycle);
                }
                CmdKind::RefAb => {
                    for (bank_idx, b) in banks[r.channel].iter().enumerate() {
                        if b.open_row.is_some() {
                            let mut v = violation(ViolationKind::RefreshNotPrecharged, 0, 0);
                            v.bank = bank_idx;
                            flag(&mut report, v);
                        }
                        if let Some(pre) = b.last_pre {
                            if let Some((need, got)) = spacing(r.cycle, pre, t.t_rp) {
                                let mut v = violation(ViolationKind::TRp, need, got);
                                v.bank = bank_idx;
                                flag(&mut report, v);
                            }
                        }
                    }
                    if t.t_refi > 0 {
                        if let Some(prev) = ch.last_ref {
                            let gap = r.cycle - prev;
                            if gap > 2 * t.t_refi {
                                flag(
                                    &mut report,
                                    violation(ViolationKind::RefreshLate, 2 * t.t_refi, gap),
                                );
                            }
                        }
                    }
                    ch.last_ref = Some(r.cycle);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> ConformanceChecker {
        ConformanceChecker::new(&DramConfig::cmp_study())
    }

    fn cmd(cycle: u64, bank: usize, kind: CmdKind, row: Option<u64>) -> CommandRecord {
        CommandRecord {
            cycle,
            channel: 0,
            bank,
            kind,
            row,
        }
    }

    #[test]
    fn legal_open_access_is_clean() {
        let mut c = checker();
        let t = DramTiming::ddr4_3200();
        c.observe(cmd(0, 0, CmdKind::Act, Some(7)));
        c.observe(cmd(t.t_rcd, 0, CmdKind::Rd, Some(7)));
        c.observe(cmd(t.t_rcd + t.t_ccd, 0, CmdKind::Rd, Some(7)));
        let report = c.finish();
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.commands, 3);
    }

    #[test]
    fn trcd_violation_is_flagged() {
        let mut c = checker();
        c.observe(cmd(0, 0, CmdKind::Act, Some(7)));
        c.observe(cmd(5, 0, CmdKind::Rd, Some(7)));
        let report = c.finish();
        assert_eq!(report.total_violations, 1);
        assert_eq!(report.violations[0].kind, ViolationKind::TRcd);
        assert_eq!(report.per_kind["trcd"], 1);
    }

    #[test]
    fn act_on_open_row_is_flagged() {
        let mut c = checker();
        c.observe(cmd(0, 0, CmdKind::Act, Some(7)));
        c.observe(cmd(100, 0, CmdKind::Act, Some(9)));
        let report = c.finish();
        assert_eq!(report.violations[0].kind, ViolationKind::ActOnOpenRow);
    }

    #[test]
    fn cas_to_wrong_or_closed_row_is_flagged() {
        let mut c = checker();
        c.observe(cmd(0, 0, CmdKind::Rd, Some(1)));
        c.observe(cmd(50, 1, CmdKind::Act, Some(2)));
        c.observe(cmd(100, 1, CmdKind::Rd, Some(3)));
        let report = c.finish();
        assert_eq!(report.per_kind["cas-closed-row"], 1);
        assert_eq!(report.per_kind["cas-wrong-row"], 1);
    }

    #[test]
    fn tras_violation_on_early_precharge() {
        let mut c = checker();
        c.observe(cmd(0, 0, CmdKind::Act, Some(7)));
        c.observe(cmd(10, 0, CmdKind::Pre, None));
        let report = c.finish();
        assert_eq!(report.violations[0].kind, ViolationKind::TRas);
    }

    #[test]
    fn rrd_and_faw_pace_activates() {
        let mut c = checker();
        let t = DramTiming::ddr4_3200();
        // Banks 0..4 land in distinct groups: cross-group spacing tRRD_S.
        c.observe(cmd(0, 0, CmdKind::Act, Some(1)));
        c.observe(cmd(1, 1, CmdKind::Act, Some(1))); // gap 1 < tRRD_S
        let report = c.finish();
        assert_eq!(report.violations[0].kind, ViolationKind::TRrdS);

        // Same group (bank 0 and 4 with 4 groups on 8 banks): tRRD_L.
        let mut c = checker();
        c.observe(cmd(0, 0, CmdKind::Act, Some(1)));
        c.observe(cmd(t.t_rrd_s + 1, 4, CmdKind::Act, Some(1)));
        let report = c.finish();
        assert_eq!(report.violations[0].kind, ViolationKind::TRrdL);

        // Five ACTs bunched inside one tFAW window.
        let mut c = checker();
        for i in 0..5u64 {
            c.observe(cmd(i * t.t_rrd_l, (i as usize) % 8, CmdKind::Act, Some(1)));
        }
        let report = c.finish();
        assert!(report.per_kind.contains_key("tfaw"), "{}", report.summary());
    }

    #[test]
    fn refresh_window_blocks_commands() {
        let mut c = checker();
        let t = DramTiming::ddr4_3200();
        c.observe(cmd(1000, 0, CmdKind::RefAb, None));
        c.observe(cmd(1000 + t.t_rfc / 2, 0, CmdKind::Act, Some(1)));
        let report = c.finish();
        assert_eq!(report.per_kind["cmd-during-refresh"], 1);
    }

    #[test]
    fn refresh_with_open_row_is_flagged() {
        let mut c = checker();
        c.observe(cmd(0, 3, CmdKind::Act, Some(1)));
        c.observe(cmd(500, 0, CmdKind::RefAb, None));
        let report = c.finish();
        assert_eq!(report.per_kind["refresh-not-precharged"], 1);
        assert_eq!(report.violations[0].bank, 3);
    }

    #[test]
    fn out_of_order_observation_is_sorted() {
        let mut c = checker();
        let t = DramTiming::ddr4_3200();
        c.observe(cmd(t.t_rcd, 0, CmdKind::Rd, Some(7)));
        c.observe(cmd(0, 0, CmdKind::Act, Some(7)));
        assert!(c.finish().is_clean());
    }

    #[test]
    fn report_caps_stored_violations_but_counts_all() {
        let mut c = checker();
        for i in 0..400u64 {
            // Interleave two rows on one bank without ACTs: every CAS is
            // wrong-row or closed-row.
            c.observe(cmd(i * 100, 0, CmdKind::Rd, Some(i)));
        }
        let report = c.finish();
        assert_eq!(report.total_violations, 400);
        assert_eq!(report.violations.len(), MAX_STORED_VIOLATIONS);
        assert!(report.summary().contains("more"));
    }

    #[test]
    fn reference_timing_catches_a_fast_controller() {
        // A controller scheduling with halved tRCD emits ACT→CAS gaps the
        // reference DDR4 bin forbids.
        let mut broken = DramConfig::cmp_study();
        broken.timing.t_rcd /= 2;
        let mut c = ConformanceChecker::with_reference(&broken, DramTiming::ddr4_3200());
        c.observe(cmd(0, 0, CmdKind::Act, Some(7)));
        c.observe(cmd(broken.timing.t_rcd, 0, CmdKind::Rd, Some(7)));
        let report = c.finish();
        assert_eq!(report.violations[0].kind, ViolationKind::TRcd);
    }
}

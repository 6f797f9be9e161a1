//! Bank state machine.
//!
//! Each bank tracks its open row and the cycle until which it is busy with
//! an in-flight precharge/activate/access sequence. The controller model
//! collapses the command sequence for one request into a single service
//! window computed from `DramTiming` (see [`crate::timing`]); this is
//! the standard "bank-state" fidelity level used by fast DRAM simulators.

use crate::request::ReqKind;
use crate::timing::{DramTiming, RowOutcome};
use serde::{Deserialize, Serialize};

/// The state of one DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Bank {
    /// The currently open row, if any (open-page policy).
    open_row: Option<u64>,
    /// Cycle at which the bank can accept the next request.
    ready_at: u64,
    /// Cycle at which the currently open row may be precharged (tRAS).
    ras_done_at: u64,
    /// Cycle at which a READ may next issue (write-to-read turnaround,
    /// tWTR after the last write burst to this bank).
    read_ready_at: u64,
    /// Column accesses served from the currently open row.
    hits_since_open: u64,
}

/// The outcome of issuing a request to a bank.
///
/// Besides the row-buffer outcome and data timing, the issue reports the
/// cycle of every implied DRAM command (the controller collapses the
/// PRE/ACT/CAS sequence into one service window), so observers such as the
/// protocol conformance sanitizer can reconstruct the command stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankIssue {
    /// Row-buffer outcome the request observed.
    pub outcome: RowOutcome,
    /// Cycle at which the first data beat may appear on the bus.
    pub data_ready: u64,
    /// Cycle of the implied PRECHARGE (row conflicts only).
    pub pre_at: Option<u64>,
    /// Cycle of the implied ACTIVATE (misses and conflicts).
    pub act_at: Option<u64>,
    /// Cycle of the column (RD/WR) command.
    pub cas_at: u64,
}

impl Bank {
    /// Creates a precharged, idle bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row currently held in the row buffer.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Column accesses served from the currently open row; the controller
    /// uses this to bound how long pending row hits may shield the row from
    /// closure (starvation control).
    pub fn hits_since_open(&self) -> u64 {
        self.hits_since_open
    }

    /// Whether the bank can accept a request at `cycle`.
    pub fn is_ready(&self, cycle: u64) -> bool {
        self.ready_at <= cycle
    }

    /// Whether the bank can accept a request of `kind` at `cycle`. Reads
    /// additionally respect the write-to-read turnaround (tWTR).
    pub fn is_ready_for(&self, kind: ReqKind, cycle: u64) -> bool {
        self.is_ready(cycle) && (kind != ReqKind::Read || self.read_ready_at <= cycle)
    }

    /// The earliest cycle the implied ACTIVATE of a request for `row`
    /// issued at `cycle` could appear on the command bus, or `None` for a
    /// row hit. Used by the controller to pace activates (tRRD / tFAW)
    /// without mutating bank state.
    pub fn prospective_act_at(&self, row: u64, cycle: u64, timing: &DramTiming) -> Option<u64> {
        match self.probe(row) {
            RowOutcome::Hit => None,
            RowOutcome::Miss => Some(cycle),
            RowOutcome::Conflict => Some(cycle.max(self.ras_done_at) + timing.t_rp),
        }
    }

    /// The cycle of the ACTIVATE that any request *not* hitting the open
    /// row implies when issued at `cycle`: every such request shares it, so
    /// the controller checks its tRRD / tFAW legality once per bank.
    pub fn next_act_at(&self, cycle: u64, timing: &DramTiming) -> u64 {
        match self.open_row {
            None => cycle,
            Some(_) => cycle.max(self.ras_done_at) + timing.t_rp,
        }
    }

    /// What row-buffer outcome a request for `row` would observe now.
    pub fn probe(&self, row: u64) -> RowOutcome {
        match self.open_row {
            Some(r) if r == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Miss,
        }
    }

    /// Issues a request to `row` at `cycle`, updating bank state and
    /// returning when its data is ready.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not ready at `cycle`; callers must check
    /// [`Bank::is_ready`] first.
    pub fn issue(
        &mut self,
        row: u64,
        kind: ReqKind,
        cycle: u64,
        timing: &DramTiming,
        burst_cycles: u64,
    ) -> BankIssue {
        assert!(
            self.is_ready(cycle),
            "bank busy until {} but issued at {}",
            self.ready_at,
            cycle
        );
        debug_assert!(
            kind != ReqKind::Read || self.read_ready_at <= cycle,
            "read issued inside the write-to-read turnaround window"
        );
        let outcome = self.probe(row);
        // A conflicting precharge must respect tRAS of the previous activate.
        let start = match outcome {
            RowOutcome::Conflict => cycle.max(self.ras_done_at),
            _ => cycle,
        };
        let data_ready = start + timing.access_latency(outcome);
        let (pre_at, act_at) = match outcome {
            RowOutcome::Hit => (None, None),
            RowOutcome::Miss => (None, Some(start)),
            RowOutcome::Conflict => (Some(start), Some(start + timing.t_rp)),
        };
        let cas_at = data_ready - timing.t_cl;
        // Column accesses pipeline: once the row is open, the bank can take
        // the next column command after tCCD (or the burst, whichever is
        // longer), not after the previous data finished transferring. The
        // data bus — serialized by the controller — is then the throughput
        // limiter, as on real parts.
        let gap = timing.t_ccd.max(burst_cycles);
        let busy_until = match outcome {
            RowOutcome::Hit => start + gap,
            RowOutcome::Miss => start + timing.t_rcd + gap,
            RowOutcome::Conflict => start + timing.t_rp + timing.t_rcd + gap,
        };
        if outcome != RowOutcome::Hit {
            // The new activate starts after any precharge completes.
            let activate_at = match outcome {
                RowOutcome::Conflict => start + timing.t_rp,
                _ => start,
            };
            self.ras_done_at = activate_at + timing.t_ras;
        }
        if kind == ReqKind::Write {
            // Write recovery delays the *precharge* of this row, not the
            // next column access: consecutive writes to an open row stream
            // at tCCD; only a subsequent row closure pays tWR, measured from
            // the end of the write burst (JEDEC).
            self.ras_done_at = self
                .ras_done_at
                .max(data_ready + burst_cycles + timing.t_wr);
            // The write-to-read turnaround starts at the end of the write
            // burst (JEDEC tWTR); same-bank writes keep streaming at tCCD.
            self.read_ready_at = self
                .read_ready_at
                .max(data_ready + burst_cycles + timing.t_wtr);
        }
        match outcome {
            RowOutcome::Hit => self.hits_since_open += 1,
            _ => self.hits_since_open = 0,
        }
        self.open_row = Some(row);
        self.ready_at = busy_until;
        BankIssue {
            outcome,
            data_ready,
            pre_at,
            act_at,
            cas_at,
        }
    }

    /// Blocks the bank (all rows closed) until `until` — used for refresh.
    pub fn refresh_until(&mut self, until: u64) {
        self.open_row = None;
        self.hits_since_open = 0;
        self.ready_at = self.ready_at.max(until);
        self.ras_done_at = self.ras_done_at.max(until);
    }

    /// The earliest cycle an all-bank refresh sequence may begin on this
    /// bank: any in-flight access must have completed and, when a row is
    /// open, its tRAS must allow the implied precharge.
    pub fn refresh_pre_at(&self, cycle: u64) -> u64 {
        let mut at = cycle.max(self.ready_at);
        if self.open_row.is_some() {
            at = at.max(self.ras_done_at);
        }
        at
    }

    /// Closes the open row (e.g. an explicit precharge by the controller).
    /// Becomes effective after `t_rp`.
    pub fn precharge(&mut self, cycle: u64, timing: &DramTiming) {
        let start = cycle.max(self.ras_done_at).max(self.ready_at);
        self.open_row = None;
        self.ready_at = start + timing.t_rp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> DramTiming {
        DramTiming::ddr4_3200()
    }

    #[test]
    fn fresh_bank_is_ready_and_closed() {
        let b = Bank::new();
        assert!(b.is_ready(0));
        assert_eq!(b.open_row(), None);
        assert_eq!(b.probe(5), RowOutcome::Miss);
    }

    #[test]
    fn first_access_is_miss_then_hit() {
        let t = timing();
        let mut b = Bank::new();
        let first = b.issue(5, ReqKind::Read, 0, &t, 4);
        assert_eq!(first.outcome, RowOutcome::Miss);
        assert_eq!(first.data_ready, t.t_rcd + t.t_cl);
        let ready = first.data_ready + 4;
        let second = b.issue(5, ReqKind::Read, ready, &t, 4);
        assert_eq!(second.outcome, RowOutcome::Hit);
        assert_eq!(second.data_ready, ready + t.t_cl);
    }

    #[test]
    fn different_row_is_conflict() {
        let t = timing();
        let mut b = Bank::new();
        let first = b.issue(5, ReqKind::Read, 0, &t, 4);
        let ready = first.data_ready + 4;
        let second = b.issue(9, ReqKind::Read, ready, &t, 4);
        assert_eq!(second.outcome, RowOutcome::Conflict);
        assert_eq!(b.open_row(), Some(9));
    }

    #[test]
    fn conflict_respects_t_ras() {
        let t = timing();
        let mut b = Bank::new();
        // Activate at cycle 0; tRAS ends at 52. A conflicting access issued
        // as soon as the bank frees (cycle 48) must wait until 52 to
        // precharge.
        let first = b.issue(1, ReqKind::Read, 0, &t, 4);
        let free = first.data_ready + 4;
        assert!(free < t.t_ras);
        let second = b.issue(2, ReqKind::Read, free, &t, 4);
        assert_eq!(second.data_ready, t.t_ras + t.t_rp + t.t_rcd + t.t_cl);
    }

    #[test]
    fn write_recovery_delays_row_closure_not_next_column() {
        let t = timing();
        let mut b1 = Bank::new();
        let mut b2 = Bank::new();
        b1.issue(1, ReqKind::Read, 0, &t, 4);
        b2.issue(1, ReqKind::Write, 0, &t, 4);
        // The next column access is equally fast after a read or a write...
        let read_free = (0..).find(|&c| b1.is_ready(c)).unwrap();
        let write_free = (0..).find(|&c| b2.is_ready(c)).unwrap();
        assert_eq!(write_free, read_free);
        // ...but closing the row (a conflict) pays the write recovery.
        let c1 = b1.issue(2, ReqKind::Read, 200, &t, 4);
        let c2 = b2.issue(2, ReqKind::Read, 200, &t, 4);
        assert_eq!(c1.outcome, RowOutcome::Conflict);
        assert_eq!(c2.outcome, RowOutcome::Conflict);
        assert!(c2.data_ready >= c1.data_ready);
    }

    #[test]
    #[should_panic(expected = "bank busy")]
    fn issuing_to_busy_bank_panics() {
        let t = timing();
        let mut b = Bank::new();
        b.issue(1, ReqKind::Read, 0, &t, 4);
        b.issue(2, ReqKind::Read, 1, &t, 4);
    }

    #[test]
    fn precharge_closes_row() {
        let t = timing();
        let mut b = Bank::new();
        let i = b.issue(1, ReqKind::Read, 0, &t, 4);
        b.precharge(i.data_ready + 4, &t);
        assert_eq!(b.open_row(), None);
        let ready = (0..).find(|&c| b.is_ready(c)).unwrap();
        assert_eq!(b.probe(1), RowOutcome::Miss);
        assert!(ready >= t.t_ras + t.t_rp);
    }
}

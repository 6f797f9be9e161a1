//! Memory request and address types.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies the agent (core, processing unit, traffic generator) that
/// issued a memory request.
///
/// Scheduling policies with fairness control (ATLAS, TCM, SMS) track
/// per-source state keyed by this id, mirroring the per-thread accounting of
/// the original proposals.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SourceId(pub usize);

impl SourceId {
    /// This source's entry in a dense per-source table indexed by the id,
    /// growing the table with `fill` when the id lies past its end. Ids are
    /// small dense integers, so tables stay as short as the largest id.
    pub(crate) fn slot<T: Clone>(self, table: &mut Vec<T>, fill: T) -> &mut T {
        if self.0 >= table.len() {
            table.resize(self.0 + 1, fill);
        }
        &mut table[self.0]
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}

/// Whether a request reads from or writes to DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ReqKind {
    /// A read (load / fill) request.
    #[default]
    Read,
    /// A write (store / write-back) request.
    Write,
}

/// A single cache-line-granularity memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryRequest {
    /// Monotonically increasing id, unique within one simulation.
    pub id: u64,
    /// The agent that issued the request.
    pub source: SourceId,
    /// Physical byte address of the first byte of the line.
    pub addr: u64,
    /// Read or write.
    pub kind: ReqKind,
    /// Memory-controller cycle at which the request entered the queue.
    pub arrival: u64,
    /// Number of bytes transferred (one interconnect line, typically 64).
    pub bytes: u32,
}

impl MemoryRequest {
    /// Creates a read request for a 64-byte line.
    pub fn read(id: u64, source: SourceId, addr: u64, arrival: u64) -> Self {
        Self {
            id,
            source,
            addr,
            kind: ReqKind::Read,
            arrival,
            bytes: 64,
        }
    }

    /// Creates a write request for a 64-byte line.
    pub fn write(id: u64, source: SourceId, addr: u64, arrival: u64) -> Self {
        Self {
            id,
            source,
            addr,
            kind: ReqKind::Write,
            arrival,
            bytes: 64,
        }
    }
}

/// A physical address decomposed into DRAM coordinates by an
/// [`AddressMapping`](crate::mapping::AddressMapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DecodedAddr {
    /// Channel index.
    pub channel: usize,
    /// Bank index within the channel.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (line offset) within the row.
    pub column: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_constructor_sets_fields() {
        let r = MemoryRequest::read(7, SourceId(2), 0x1000, 99);
        assert_eq!(r.id, 7);
        assert_eq!(r.source, SourceId(2));
        assert_eq!(r.addr, 0x1000);
        assert_eq!(r.kind, ReqKind::Read);
        assert_eq!(r.arrival, 99);
        assert_eq!(r.bytes, 64);
    }

    #[test]
    fn write_constructor_sets_kind() {
        let r = MemoryRequest::write(1, SourceId(0), 0, 0);
        assert_eq!(r.kind, ReqKind::Write);
    }

    #[test]
    fn source_id_display() {
        assert_eq!(SourceId(3).to_string(), "src3");
    }

    #[test]
    fn source_id_orders_by_index() {
        assert!(SourceId(1) < SourceId(2));
    }
}

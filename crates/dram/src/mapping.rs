//! Physical-address-to-DRAM-coordinate mapping.
//!
//! The paper's target SoCs use channel interleaving to build a wide bus from
//! narrow channels ("The memory uses channel interleaving to construct
//! 256-bit width from 8 32-bit channels", Section 2.1), and the CMP study
//! uses "XOR-based address-to-bank mapping" (Table 1). Both are implemented
//! here.

use crate::config::DramConfig;
use crate::request::DecodedAddr;
use serde::{Deserialize, Serialize};

/// How consecutive lines are spread across channels and banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AddressMapping {
    /// Consecutive lines rotate across channels; banks selected by the bits
    /// above the column, XOR-hashed with low row bits to spread conflicting
    /// strides (the Table 1 scheme).
    #[default]
    ChannelInterleaveXorBank,
    /// Consecutive lines rotate across channels; plain modulo bank
    /// selection (no hash). Useful as an ablation to quantify what the XOR
    /// hash buys.
    ChannelInterleavePlain,
}

impl AddressMapping {
    /// Decodes a physical byte address into channel/bank/row/column
    /// coordinates for the given geometry.
    pub fn decode(&self, addr: u64, config: &DramConfig) -> DecodedAddr {
        self.decoder(config).decode(addr)
    }

    /// This mapping over `config`'s geometry with its divisors prepared
    /// once, for a caller that decodes every request.
    pub(crate) fn decoder(&self, config: &DramConfig) -> AddressDecoder {
        AddressDecoder {
            mapping: *self,
            line: Divisor::new(u64::from(config.line_bytes)),
            channels: Divisor::new(config.channels as u64),
            columns: Divisor::new(config.columns_per_row()),
            banks: Divisor::new(config.banks_per_channel as u64),
        }
    }
}

/// A divisor fixed for a decoder's lifetime: a shift and a mask when it is
/// a power of two (every preset geometry), a division otherwise.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    d: u64,
    shift: Option<u32>,
}

impl Divisor {
    fn new(d: u64) -> Self {
        Self {
            d,
            shift: d.is_power_of_two().then(|| d.trailing_zeros()),
        }
    }

    /// `(x / d, x % d)`.
    #[inline]
    fn div_rem(self, x: u64) -> (u64, u64) {
        match self.shift {
            Some(shift) => (x >> shift, x & (self.d - 1)),
            None => (x / self.d, x % self.d),
        }
    }
}

/// An [`AddressMapping`] bound to one geometry. The controller decodes
/// every enqueued request through one, so a power-of-two geometry costs
/// shifts and masks instead of five 64-bit divisions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AddressDecoder {
    mapping: AddressMapping,
    line: Divisor,
    channels: Divisor,
    columns: Divisor,
    banks: Divisor,
}

impl AddressDecoder {
    /// Decodes a physical byte address, exactly as
    /// [`AddressMapping::decode`] over the same geometry.
    #[inline]
    pub(crate) fn decode(&self, addr: u64) -> DecodedAddr {
        let (line, _) = self.line.div_rem(addr);
        let (blk, channel) = self.channels.div_rem(line);
        let (bank_row, column) = self.columns.div_rem(blk);
        // blk / (columns × banks) is (blk / columns) / banks.
        let (row, bank_raw) = self.banks.div_rem(bank_row);
        let bank = match self.mapping {
            AddressMapping::ChannelInterleaveXorBank => self.banks.div_rem(bank_raw ^ row).1,
            AddressMapping::ChannelInterleavePlain => bank_raw,
        };
        DecodedAddr {
            channel: channel as usize,
            bank: bank as usize,
            row,
            column,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> DramConfig {
        DramConfig::cmp_study()
    }

    #[test]
    fn consecutive_lines_interleave_channels() {
        let m = AddressMapping::ChannelInterleaveXorBank;
        let c = cfg();
        let d0 = m.decode(0, &c);
        let d1 = m.decode(64, &c);
        let d2 = m.decode(128, &c);
        assert_eq!(d0.channel, 0);
        assert_eq!(d1.channel, 1);
        assert_eq!(d2.channel, 2);
    }

    #[test]
    fn same_row_until_row_boundary() {
        let m = AddressMapping::ChannelInterleaveXorBank;
        let c = cfg();
        // Lines 0, channels.. stay in channel 0; the first columns_per_row of
        // them share bank and row.
        let stride = 64 * c.channels as u64;
        let first = m.decode(0, &c);
        let mid = m.decode(stride * (c.columns_per_row() - 1), &c);
        assert_eq!(first.row, mid.row);
        assert_eq!(first.bank, mid.bank);
        let next = m.decode(stride * c.columns_per_row(), &c);
        assert!(next.bank != first.bank || next.row != first.row);
    }

    #[test]
    fn xor_hash_stays_in_range() {
        let m = AddressMapping::ChannelInterleaveXorBank;
        let c = cfg();
        for i in 0..10_000u64 {
            let d = m.decode(i * 64 * 977, &c);
            assert!(d.channel < c.channels);
            assert!(d.bank < c.banks_per_channel);
            assert!(d.column < c.columns_per_row());
        }
    }

    #[test]
    fn plain_and_xor_agree_on_row_and_channel() {
        let xor = AddressMapping::ChannelInterleaveXorBank;
        let plain = AddressMapping::ChannelInterleavePlain;
        let c = cfg();
        for i in 0..1000u64 {
            let a = i * 64 * 131;
            let dx = xor.decode(a, &c);
            let dp = plain.decode(a, &c);
            assert_eq!(dx.channel, dp.channel);
            assert_eq!(dx.row, dp.row);
            assert_eq!(dx.column, dp.column);
        }
    }

    #[test]
    fn xor_spreads_power_of_two_row_stride() {
        // A stride that hits the same bank every time under plain mapping
        // should hit different banks under the XOR hash.
        let xor = AddressMapping::ChannelInterleaveXorBank;
        let plain = AddressMapping::ChannelInterleavePlain;
        let c = cfg();
        let row_stride = 64 * c.channels as u64 * c.columns_per_row() * c.banks_per_channel as u64;
        let plain_banks: Vec<usize> = (0..8)
            .map(|i| plain.decode(i * row_stride, &c).bank)
            .collect();
        let xor_banks: Vec<usize> = (0..8)
            .map(|i| xor.decode(i * row_stride, &c).bank)
            .collect();
        assert!(plain_banks.iter().all(|&b| b == plain_banks[0]));
        assert!(xor_banks.iter().any(|&b| b != xor_banks[0]));
    }

    /// The decode formula as first written, with five divisions, kept as
    /// the reference the prepared decoder must match.
    fn divided(mapping: AddressMapping, addr: u64, config: &DramConfig) -> DecodedAddr {
        let line = addr / u64::from(config.line_bytes);
        let channels = config.channels as u64;
        let banks = config.banks_per_channel as u64;
        let cols = config.columns_per_row();
        let blk = line / channels;
        let bank_raw = (blk / cols) % banks;
        let row = blk / (cols * banks);
        let bank = match mapping {
            AddressMapping::ChannelInterleaveXorBank => (bank_raw ^ row) % banks,
            AddressMapping::ChannelInterleavePlain => bank_raw,
        };
        DecodedAddr {
            channel: (line % channels) as usize,
            bank: bank as usize,
            row,
            column: blk % cols,
        }
    }

    /// Every preset, plus a geometry whose channel, bank and column
    /// counts are not powers of two.
    fn geometries() -> Vec<DramConfig> {
        let mut odd = DramConfig::xavier();
        odd.channels = 6;
        odd.banks_per_channel = 12;
        odd.row_bytes = 1536;
        vec![
            DramConfig::cmp_study(),
            DramConfig::xavier(),
            DramConfig::snapdragon855(),
            odd,
        ]
    }

    proptest! {
        /// The prepared decoder (shifts and masks on a power-of-two
        /// geometry) decodes every address like the division formula.
        #[test]
        fn prepared_decode_matches_the_division_formula(
            addr in any::<u64>(),
            low in 0u64..(1 << 34),
        ) {
            for config in geometries() {
                for mapping in [
                    AddressMapping::ChannelInterleaveXorBank,
                    AddressMapping::ChannelInterleavePlain,
                ] {
                    for a in [addr, low] {
                        prop_assert_eq!(
                            mapping.decode(a, &config),
                            divided(mapping, a, &config)
                        );
                    }
                }
            }
        }
    }
}

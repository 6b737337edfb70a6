//! Four-state logic values and the two-state bit vectors trace sinks receive.

use std::fmt;

/// A single four-state logic value, as found in HDL simulators.
///
/// ```
/// use sim_kernel::Logic;
/// assert_eq!(Logic::L0 & Logic::L1, Logic::L0);
/// assert_eq!(Logic::X | Logic::L1, Logic::L1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Logic {
    /// Logic low.
    #[default]
    L0,
    /// Logic high.
    L1,
    /// Unknown.
    X,
    /// High impedance.
    Z,
}

impl Logic {
    /// Converts a `bool` into `L0`/`L1`.
    pub const fn from_bool(b: bool) -> Self {
        if b {
            Logic::L1
        } else {
            Logic::L0
        }
    }

    /// Returns `Some(bool)` for the driven states, `None` for `X`/`Z`.
    pub const fn to_bool(self) -> Option<bool> {
        match self {
            Logic::L0 => Some(false),
            Logic::L1 => Some(true),
            Logic::X | Logic::Z => None,
        }
    }

    /// True when the value is `L0` or `L1`.
    pub const fn is_driven(self) -> bool {
        matches!(self, Logic::L0 | Logic::L1)
    }

    /// The VCD character for this value.
    pub const fn vcd_char(self) -> char {
        match self {
            Logic::L0 => '0',
            Logic::L1 => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        }
    }
}

impl std::ops::BitAnd for Logic {
    type Output = Logic;
    fn bitand(self, rhs: Logic) -> Logic {
        use Logic::*;
        match (self, rhs) {
            (L0, _) | (_, L0) => L0,
            (L1, L1) => L1,
            _ => X,
        }
    }
}

impl std::ops::BitOr for Logic {
    type Output = Logic;
    fn bitor(self, rhs: Logic) -> Logic {
        use Logic::*;
        match (self, rhs) {
            (L1, _) | (_, L1) => L1,
            (L0, L0) => L0,
            _ => X,
        }
    }
}

impl std::ops::Not for Logic {
    type Output = Logic;
    fn not(self) -> Logic {
        use Logic::*;
        match self {
            L0 => L1,
            L1 => L0,
            X | Z => X,
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.vcd_char())
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Self {
        Logic::from_bool(b)
    }
}

/// A two-state bit-vector snapshot of a signal value, used by trace sinks.
///
/// Values wider than 64 bits use additional words, LSB word first.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Bits {
    width: usize,
    words: Vec<u64>,
}

impl Bits {
    /// Creates a `Bits` from explicit words (LSB word first).
    ///
    /// # Panics
    ///
    /// Panics if `words` has fewer than `width.div_ceil(64)` entries.
    pub fn new(width: usize, words: Vec<u64>) -> Self {
        assert!(
            words.len() >= width.div_ceil(64).max(1),
            "word count {} too small for width {width}",
            words.len()
        );
        let mut b = Bits { width, words };
        b.mask_top();
        b
    }

    /// A single-word value.
    pub fn from_u64(value: u64, width: usize) -> Self {
        assert!(width <= 64, "from_u64 limited to 64 bits, got {width}");
        let mut b = Bits {
            width,
            words: vec![value],
        };
        b.mask_top();
        b
    }

    /// A one-bit value.
    pub fn from_bool(v: bool) -> Self {
        Bits::from_u64(v as u64, 1)
    }

    /// Builds from a little-endian byte slice.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let width = bytes.len() * 8;
        let mut words = vec![0u64; width.div_ceil(64).max(1)];
        for (i, byte) in bytes.iter().enumerate() {
            words[i / 8] |= (*byte as u64) << ((i % 8) * 8);
        }
        Bits { width, words }
    }

    fn mask_top(&mut self) {
        if self.width == 0 {
            for w in &mut self.words {
                *w = 0;
            }
            return;
        }
        let top_bits = self.width % 64;
        let full_words = self.width / 64;
        if top_bits != 0 {
            if let Some(w) = self.words.get_mut(full_words) {
                *w &= (1u64 << top_bits) - 1;
            }
        }
        for w in self
            .words
            .iter_mut()
            .skip(full_words + usize::from(top_bits != 0))
        {
            *w = 0;
        }
    }

    /// The declared bit width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Returns bit `i`, or `false` when `i` is out of range.
    pub fn bit(&self, i: usize) -> bool {
        if i >= self.width {
            return false;
        }
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The low word, convenient for values up to 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.words.first().copied().unwrap_or(0)
    }

    /// Renders the VCD binary literal (MSB first, no leading `b`).
    pub fn to_vcd_binary(&self) -> String {
        if self.width == 0 {
            return "0".to_owned();
        }
        (0..self.width)
            .rev()
            .map(|i| if self.bit(i) { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b{}", self.width, self.to_vcd_binary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn logic_truth_tables() {
        use Logic::*;
        assert_eq!(L0 & X, L0);
        assert_eq!(L1 & X, X);
        assert_eq!(L1 | Z, L1);
        assert_eq!(L0 | Z, X);
        assert_eq!(!X, X);
        assert_eq!(!Z, X);
        assert_eq!(!L0, L1);
    }

    #[test]
    fn logic_bool_round_trip() {
        assert_eq!(Logic::from_bool(true).to_bool(), Some(true));
        assert_eq!(Logic::from_bool(false).to_bool(), Some(false));
        assert_eq!(Logic::X.to_bool(), None);
        assert!(!Logic::Z.is_driven());
    }

    #[test]
    fn bits_single_word() {
        let b = Bits::from_u64(0xA5, 8);
        assert_eq!(b.low_u64(), 0xA5);
        assert_eq!(b.to_vcd_binary(), "10100101");
        assert!(b.bit(0));
        assert!(!b.bit(1));
        assert!(!b.bit(63));
    }

    #[test]
    fn bits_masks_above_width() {
        let b = Bits::from_u64(u64::MAX, 4);
        assert_eq!(b.low_u64(), 0xF);
    }

    #[test]
    fn bits_from_bytes_multiword() {
        let bytes: Vec<u8> = (0..16).collect();
        let b = Bits::from_bytes(&bytes);
        assert_eq!(b.width(), 128);
        assert!(b.bit(8)); // byte 1 == 0x01 -> bit 8 set
        assert_eq!(b.low_u64() & 0xFFFF, 0x0100);
    }

    #[test]
    fn bits_zero_width_is_stable() {
        let b = Bits::new(0, vec![123]);
        assert_eq!(b.to_vcd_binary(), "0");
        assert_eq!(b.low_u64(), 0);
    }

    proptest! {
        #[test]
        fn prop_bits_bit_matches_u64(v: u64, width in 1usize..=64) {
            let b = Bits::from_u64(v, width);
            for i in 0..width {
                prop_assert_eq!(b.bit(i), (v >> i) & 1 == 1);
            }
        }

        #[test]
        fn prop_bits_from_bytes_round_trip(bytes in proptest::collection::vec(any::<u8>(), 1..40)) {
            let b = Bits::from_bytes(&bytes);
            for (i, byte) in bytes.iter().enumerate() {
                for bit in 0..8 {
                    prop_assert_eq!(b.bit(i * 8 + bit), (byte >> bit) & 1 == 1);
                }
            }
        }

        #[test]
        fn prop_logic_demorgan(a in 0usize..4, b in 0usize..4) {
            let l = [Logic::L0, Logic::L1, Logic::X, Logic::Z];
            let (a, b) = (l[a], l[b]);
            // De Morgan holds in four-state logic up to X-collapse:
            // !(a & b) and (!a | !b) must agree whenever both are driven.
            let lhs = !(a & b);
            let rhs = !a | !b;
            if lhs.is_driven() && rhs.is_driven() {
                prop_assert_eq!(lhs, rhs);
            }
        }
    }
}

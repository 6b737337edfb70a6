//! A sparse byte-addressable memory, used by target BFMs and the
//! scoreboard's reference model.

use std::collections::HashMap;

/// Bytes per page of a [`SparseMemory`].
const PAGE_BYTES: usize = 64;

/// One 64-byte page: every byte holds its written value or, if never
/// written, its background pattern, and `written` has bit `k` set iff
/// byte `k` was written.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Page {
    data: [u8; PAGE_BYTES],
    written: u64,
}

impl Page {
    /// A page of background bytes, none written.
    fn background(page: u64) -> Self {
        let base = page * PAGE_BYTES as u64;
        Page {
            data: std::array::from_fn(|k| SparseMemory::background(base + k as u64)),
            written: 0,
        }
    }
}

/// A sparse memory: unwritten bytes read back as a deterministic
/// fill pattern derived from the address, so loads of never-written
/// locations still produce definite, reproducible data on both views.
///
/// Storage is paged: a 64-byte page is created, filled from the
/// background pattern, on the first write into it, so an access hashes
/// once per page touched rather than once per byte. Pages exist only
/// where something was written, which keeps equality a comparison of
/// written bytes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SparseMemory {
    pages: HashMap<u64, Page>,
}

/// Splits `[addr, addr + len)` into per-page runs of
/// `(page, offset in page, offset in the run's data, length)`.
fn page_runs(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let at = addr + done as u64;
        let offset = (at % PAGE_BYTES as u64) as usize;
        let n = (PAGE_BYTES - offset).min(len - done);
        let run = (at / PAGE_BYTES as u64, offset, done, n);
        done += n;
        Some(run)
    })
}

impl SparseMemory {
    /// An empty memory.
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// The deterministic background pattern of an unwritten byte.
    pub fn background(addr: u64) -> u8 {
        // A cheap address hash; stable across runs and views.
        let x = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (x >> 56) as u8
    }

    fn page_mut(&mut self, page: u64) -> &mut Page {
        self.pages
            .entry(page)
            .or_insert_with(|| Page::background(page))
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr / PAGE_BYTES as u64)) {
            Some(page) => page.data[(addr % PAGE_BYTES as u64) as usize],
            None => Self::background(addr),
        }
    }

    /// Writes one byte.
    pub fn write_byte(&mut self, addr: u64, value: u8) {
        self.write(addr, &[value]);
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        for (page, offset, at, n) in page_runs(addr, len) {
            let out = &mut out[at..at + n];
            match self.pages.get(&page) {
                Some(p) => out.copy_from_slice(&p.data[offset..offset + n]),
                None => {
                    for (k, b) in out.iter_mut().enumerate() {
                        *b = Self::background(addr + (at + k) as u64);
                    }
                }
            }
        }
        out
    }

    /// Writes a slice starting at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        for (page, offset, at, n) in page_runs(addr, data.len()) {
            let p = self.page_mut(page);
            p.data[offset..offset + n].copy_from_slice(&data[at..at + n]);
            p.written |= run_mask(offset, n);
        }
    }

    /// Writes only the lanes enabled in `be`: byte `k` of `data` is
    /// written iff bit `k` of `be` is set. The base address is `addr`.
    pub fn write_masked(&mut self, addr: u64, data: &[u8], be: u32) {
        // Lanes past bit 31 of `be` are never enabled.
        let len = data.len().min(32);
        for (page, offset, at, n) in page_runs(addr, len) {
            let lanes = (be >> at) as u64 & run_mask(0, n);
            if lanes == 0 {
                continue;
            }
            let p = self.page_mut(page);
            for k in 0..n {
                if (lanes >> k) & 1 == 1 {
                    p.data[offset + k] = data[at + k];
                }
            }
            p.written |= lanes << offset;
        }
    }

    /// Number of explicitly written bytes.
    pub fn written_len(&self) -> usize {
        self.pages
            .values()
            .map(|p| p.written.count_ones() as usize)
            .sum()
    }
}

/// The mask of `n` bits starting at bit `offset` (`offset + n <= 64`).
fn run_mask(offset: usize, n: usize) -> u64 {
    let bits = if n == PAGE_BYTES {
        u64::MAX
    } else {
        (1u64 << n) - 1
    };
    bits << offset
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn background_is_deterministic_and_varied() {
        assert_eq!(SparseMemory::background(100), SparseMemory::background(100));
        let distinct: std::collections::HashSet<u8> =
            (0..64u64).map(SparseMemory::background).collect();
        assert!(distinct.len() > 10, "pattern should vary across addresses");
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut m = SparseMemory::new();
        m.write(0x1000, &[1, 2, 3, 4]);
        assert_eq!(m.read(0x1000, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.read_byte(0x1004), SparseMemory::background(0x1004));
        assert_eq!(m.written_len(), 4);
    }

    #[test]
    fn masked_write_skips_disabled_lanes() {
        let mut m = SparseMemory::new();
        m.write(0x0, &[0xAA; 4]);
        m.write_masked(0x0, &[1, 2, 3, 4], 0b0101);
        assert_eq!(m.read(0x0, 4), vec![1, 0xAA, 3, 0xAA]);
    }

    #[test]
    fn writes_across_a_page_boundary_read_back() {
        let mut m = SparseMemory::new();
        m.write(60, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.read(58, 12)[2..10], [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.read_byte(58), SparseMemory::background(58));
        assert_eq!(m.read_byte(68), SparseMemory::background(68));
        assert_eq!(m.written_len(), 8);
        m.write_masked(62, &[9; 4], 0);
        assert_eq!(m.written_len(), 8, "be = 0 writes nothing");
        assert_eq!(m, {
            let mut n = SparseMemory::new();
            for (k, b) in (60..68).zip(1..) {
                n.write_byte(k, b);
            }
            n
        });
    }

    /// One step of a random access sequence.
    #[derive(Clone, Debug)]
    enum Op {
        Write(u64, Vec<u8>),
        WriteMasked(u64, Vec<u8>, u32),
        Read(u64, usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        let data = || proptest::collection::vec(any::<u8>(), 0..33);
        prop_oneof![
            (0u64..300, data()).prop_map(|(a, d)| Op::Write(a, d)),
            (0u64..300, data(), any::<u32>()).prop_map(|(a, d, be)| Op::WriteMasked(a, d, be)),
            (0u64..300, data()).prop_map(|(a, d)| Op::WriteMasked(a, d, 0)),
            (0u64..300, 0usize..140).prop_map(|(a, n)| Op::Read(a, n)),
        ]
    }

    /// Runs `ops` against a memory and a per-byte map, checking every
    /// read and the written-byte count along the way.
    fn replay(ops: &[Op]) -> (SparseMemory, HashMap<u64, u8>) {
        let mut m = SparseMemory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        let model_read = |model: &HashMap<u64, u8>, a: u64| {
            model
                .get(&a)
                .copied()
                .unwrap_or_else(|| SparseMemory::background(a))
        };
        for op in ops {
            match op {
                Op::Write(a, d) => {
                    m.write(*a, d);
                    for (k, b) in d.iter().enumerate() {
                        model.insert(a + k as u64, *b);
                    }
                }
                Op::WriteMasked(a, d, be) => {
                    m.write_masked(*a, d, *be);
                    for (k, b) in d.iter().enumerate() {
                        if (be >> k) & 1 == 1 {
                            model.insert(a + k as u64, *b);
                        }
                    }
                }
                Op::Read(a, n) => {
                    let want: Vec<u8> = (0..*n as u64).map(|k| model_read(&model, a + k)).collect();
                    prop_assert_eq!(m.read(*a, *n), want);
                    prop_assert_eq!(m.read_byte(*a), model_read(&model, *a));
                }
            }
            prop_assert_eq!(m.written_len(), model.len());
        }
        (m, model)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_paged_memory_matches_a_per_byte_model(
            ops in proptest::collection::vec(op(), 0..40),
            cut in 0usize..40,
        ) {
            let (m, model) = replay(&ops);
            // Equality is equality of the written bytes: a memory rebuilt
            // byte by byte from the model is equal ...
            let mut rebuilt = SparseMemory::new();
            for (a, b) in &model {
                rebuilt.write_byte(*a, *b);
            }
            prop_assert!(m == rebuilt);
            // ... and a prefix of the sequence is equal iff its model is.
            let (prefix, prefix_model) = replay(&ops[..cut.min(ops.len())]);
            prop_assert_eq!(m == prefix, model == prefix_model);
        }
    }

    proptest! {
        #[test]
        fn prop_read_write_round_trip(addr in 0u64..1_000_000, data in proptest::collection::vec(any::<u8>(), 1..64)) {
            let mut m = SparseMemory::new();
            m.write(addr, &data);
            prop_assert_eq!(m.read(addr, data.len()), data);
        }

        #[test]
        fn prop_masked_write_equivalence(addr in 0u64..1000, data in proptest::collection::vec(any::<u8>(), 1..32), be: u32) {
            // write_masked must equal per-byte conditional writes.
            let mut a = SparseMemory::new();
            let mut b = SparseMemory::new();
            a.write_masked(addr, &data, be);
            for (k, byte) in data.iter().enumerate() {
                if (be >> k) & 1 == 1 {
                    b.write_byte(addr + k as u64, *byte);
                }
            }
            prop_assert_eq!(a, b);
        }
    }
}

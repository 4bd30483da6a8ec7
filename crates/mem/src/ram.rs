//! Flat word-organised RAM.

use rvsim_snapshot::{self as snap, Json, SnapError};
use std::fmt;

/// Width of a single memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessSize {
    /// 8-bit access.
    Byte,
    /// 16-bit access.
    Half,
    /// 32-bit access.
    Word,
}

impl AccessSize {
    /// Number of bytes transferred.
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            AccessSize::Byte => 1,
            AccessSize::Half => 2,
            AccessSize::Word => 4,
        }
    }
}

/// A contiguous block of RAM starting at `base`.
///
/// Addresses are byte addresses; the backing store is word-organised.
/// Sub-word accesses must be naturally aligned (the RV32 cores in this
/// model do not generate misaligned accesses).
///
/// ```
/// use rvsim_mem::{Mem, AccessSize};
/// let mut m = Mem::new(0x2000_0000, 4096);
/// m.write(0x2000_0010, AccessSize::Word, 0xdead_beef);
/// assert_eq!(m.read(0x2000_0010, AccessSize::Word), 0xdead_beef);
/// assert_eq!(m.read(0x2000_0012, AccessSize::Half), 0xdead);
/// ```
#[derive(Clone)]
pub struct Mem {
    base: u32,
    words: Vec<u32>,
}

impl fmt::Debug for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mem")
            .field("base", &format_args!("{:#010x}", self.base))
            .field("size_bytes", &(self.words.len() * 4))
            .finish()
    }
}

impl Mem {
    /// Creates a zero-initialised RAM of `size_bytes` (rounded up to a
    /// word) at byte address `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word-aligned.
    pub fn new(base: u32, size_bytes: u32) -> Mem {
        assert_eq!(base % 4, 0, "base must be word-aligned");
        Mem {
            base,
            words: vec![0; size_bytes.div_ceil(4) as usize],
        }
    }

    /// First byte address served by this RAM.
    #[inline]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// One past the last byte address served by this RAM.
    #[inline]
    pub fn end(&self) -> u32 {
        self.base + (self.words.len() as u32) * 4
    }

    /// Whether `addr` falls inside this RAM.
    #[inline]
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && addr < self.end()
    }

    #[inline]
    fn index(&self, addr: u32) -> usize {
        assert!(
            self.contains(addr),
            "address {addr:#010x} outside RAM [{:#010x}, {:#010x})",
            self.base,
            self.end()
        );
        ((addr - self.base) / 4) as usize
    }

    /// Reads raw (zero-extended) bits of the given width.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or misaligned access — in this simulator a
    /// wild guest access is a test failure, not a recoverable condition.
    #[inline]
    pub fn read(&self, addr: u32, size: AccessSize) -> u32 {
        let word = self.words[self.index(addr)];
        match size {
            AccessSize::Word => {
                assert_eq!(addr % 4, 0, "misaligned word read at {addr:#010x}");
                word
            }
            AccessSize::Half => {
                assert_eq!(addr % 2, 0, "misaligned half read at {addr:#010x}");
                (word >> ((addr % 4) * 8)) & 0xffff
            }
            AccessSize::Byte => (word >> ((addr % 4) * 8)) & 0xff,
        }
    }

    /// Writes the low bits of `value` at the given width.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or misaligned access.
    #[inline]
    pub fn write(&mut self, addr: u32, size: AccessSize, value: u32) {
        let idx = self.index(addr);
        let word = &mut self.words[idx];
        match size {
            AccessSize::Word => {
                assert_eq!(addr % 4, 0, "misaligned word write at {addr:#010x}");
                *word = value;
            }
            AccessSize::Half => {
                assert_eq!(addr % 2, 0, "misaligned half write at {addr:#010x}");
                let shift = (addr % 4) * 8;
                *word = (*word & !(0xffff << shift)) | ((value & 0xffff) << shift);
            }
            AccessSize::Byte => {
                let shift = (addr % 4) * 8;
                *word = (*word & !(0xff << shift)) | ((value & 0xff) << shift);
            }
        }
    }

    /// Convenience word read (word-aligned `addr`).
    #[inline]
    pub fn read_word(&self, addr: u32) -> u32 {
        self.read(addr, AccessSize::Word)
    }

    /// Convenience word write (word-aligned `addr`).
    #[inline]
    pub fn write_word(&mut self, addr: u32, value: u32) {
        self.write(addr, AccessSize::Word, value);
    }

    /// Copies a slice of words into memory starting at `addr`.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.write_word(addr + (i as u32) * 4, *w);
        }
    }

    /// Serializes the contents (run-length encoded) for a machine-state
    /// snapshot. Base and size are the memory map's, not state.
    pub fn to_snap(&self) -> Json {
        Json::object().with("words", snap::runs_to_json(&self.words))
    }

    /// Rebuilds a RAM of `size_bytes` at `base` — the caller's geometry —
    /// from [`to_snap`](Self::to_snap) output.
    ///
    /// # Errors
    ///
    /// Fails on a missing field or contents whose runs do not add up to
    /// the caller's size; nothing is allocated beyond that size.
    pub fn from_snap(value: &Json, base: u32, size_bytes: u32) -> Result<Mem, SnapError> {
        let len = size_bytes.div_ceil(4) as usize;
        let words = snap::runs_from_json(snap::field(value, "words")?, len)?;
        Ok(Mem { base, words })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_lanes() {
        let mut m = Mem::new(0, 16);
        m.write_word(4, 0x1122_3344);
        assert_eq!(m.read(4, AccessSize::Byte), 0x44);
        assert_eq!(m.read(5, AccessSize::Byte), 0x33);
        assert_eq!(m.read(6, AccessSize::Byte), 0x22);
        assert_eq!(m.read(7, AccessSize::Byte), 0x11);
        m.write(5, AccessSize::Byte, 0xAA);
        assert_eq!(m.read_word(4), 0x1122_AA44);
    }

    #[test]
    fn half_lanes() {
        let mut m = Mem::new(0, 16);
        m.write(8, AccessSize::Half, 0xBEEF);
        m.write(10, AccessSize::Half, 0xDEAD);
        assert_eq!(m.read_word(8), 0xDEAD_BEEF);
    }

    #[test]
    fn load_words_bulk() {
        let mut m = Mem::new(0x100, 64);
        m.load_words(0x104, &[1, 2, 3]);
        assert_eq!(m.read_word(0x104), 1);
        assert_eq!(m.read_word(0x10c), 3);
    }

    #[test]
    fn snapshots_restore_the_callers_geometry() {
        let mut m = Mem::new(0x100, 64);
        m.write_word(0x108, 9);
        let doc = m.to_snap();
        let back = Mem::from_snap(&doc, 0x100, 64).expect("round trip");
        assert_eq!((back.base(), back.end()), (0x100, 0x140));
        assert_eq!(back.read_word(0x108), 9);
        // Contents of another size are refused, whatever they claim.
        assert!(Mem::from_snap(&doc, 0x100, 128).is_err(), "short contents");
        assert!(Mem::from_snap(&doc, 0x100, 32).is_err(), "long contents");
        let huge = Json::object().with("words", snap::list_to_json(&[u64::MAX, 0]));
        assert!(Mem::from_snap(&huge, 0, 64).is_err(), "run beyond the RAM");
    }

    #[test]
    #[should_panic(expected = "outside RAM")]
    fn out_of_range_panics() {
        let m = Mem::new(0x100, 16);
        m.read_word(0x200);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_word_panics() {
        let m = Mem::new(0, 16);
        m.read(2, AccessSize::Word);
    }
}

//! Fault injection: deterministic corruption of FBF binaries and FWI
//! containers.
//!
//! Real firmware images are full of hand-written assembly, data
//! misclassified as code, and vendor packing quirks (§V-A of the
//! paper); a scanner that assumes well-formed inputs dies on the first
//! of them. This module produces the *mutation corpus* the
//! fault-tolerance layer is tested against: every operator is a pure
//! function of its inputs (seeded xorshift, no ambient randomness), so
//! a failing corpus entry can be replayed bit-for-bit.
//!
//! Two corruption layers:
//!
//! * [`ByteFault`] / [`corrupt_bytes`] — format-agnostic damage to the
//!   serialized blob (truncation, magic clobbering, random bit flips).
//!   These mostly make the container unparseable; the parser must
//!   return a typed error, never panic.
//! * [`BinFault`] / [`corrupt_binary`] — structural damage to a parsed
//!   [`Binary`] that re-serializes cleanly (garbage opcode words inside
//!   one function, lying section sizes, address-wrapping or overlapping
//!   symbols, two symbols at one entry). These produce images that *parse* but contain functions
//!   the analysis cannot digest; the scanner must downgrade exactly
//!   those functions and leave the rest of the report untouched.
//!
//! [`fbf_fault_corpus`] and [`fwi_fault_corpus`] bundle the standard
//! operator sweep into named corpora for the integration suite and the
//! CI smoke step.

use dtaint_fwbin::fbf::{Section, SectionKind, Symbol, SymbolKind};
use dtaint_fwbin::Binary;
use dtaint_fwimage::FwImage;

/// Minimal xorshift64* generator — deterministic, dependency-free, and
/// good enough for fault placement (not for statistics).
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator; a zero seed is remapped (xorshift fixpoint).
    pub fn new(seed: u64) -> Self {
        Rng64 { state: if seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { seed } }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Format-agnostic corruption of a serialized blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ByteFault {
    /// Keep only the first `keep` bytes.
    Truncate {
        /// Bytes to keep from the front.
        keep: usize,
    },
    /// Overwrite the 4-byte magic with `0xff`.
    BadMagic,
    /// Flip `flips` random bits chosen by a seeded generator.
    BitFlips {
        /// Generator seed (same seed, same input → same damage).
        seed: u64,
        /// Number of single-bit flips.
        flips: u32,
    },
    /// Flip exactly one chosen bit — the surgical variant the store
    /// salvage proptests use when the damaged span must be computable
    /// (a random flip can land in a checksum, a blob, or a header, each
    /// with a different expected salvage count).
    FlipAt {
        /// Byte offset (out-of-range offsets are a no-op).
        offset: usize,
        /// Bit index `0..8`.
        bit: u8,
    },
}

/// Applies a [`ByteFault`] to a copy of `data`.
pub fn corrupt_bytes(data: &[u8], fault: &ByteFault) -> Vec<u8> {
    let mut out = data.to_vec();
    match fault {
        ByteFault::Truncate { keep } => out.truncate(*keep),
        ByteFault::BadMagic => {
            for b in out.iter_mut().take(4) {
                *b = 0xff;
            }
        }
        ByteFault::BitFlips { seed, flips } => {
            if !out.is_empty() {
                let mut rng = Rng64::new(*seed);
                for _ in 0..*flips {
                    let byte = rng.below(out.len() as u64) as usize;
                    let bit = rng.below(8) as u8;
                    out[byte] ^= 1 << bit;
                }
            }
        }
        ByteFault::FlipAt { offset, bit } => {
            if let Some(b) = out.get_mut(*offset) {
                *b ^= 1 << (bit % 8);
            }
        }
    }
    out
}

/// The standard damage sweep over a *store artifact* (a `DTC2` summary
/// cache, a `findings.json`, a journal): truncations at several depths,
/// a clobbered magic, and seeded bit flips. Store files carry their own
/// integrity metadata, so — unlike the firmware corpora above — the
/// reader is expected to *recover* (salvage intact cache entries,
/// quarantine the db, drop the torn journal tail), never merely reject.
pub fn store_fault_corpus(bytes: &[u8], seed: u64) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = Vec::new();
    for keep in [0, 7, bytes.len() / 4, bytes.len() / 2, bytes.len().saturating_sub(3)] {
        out.push((format!("truncate-{keep}"), corrupt_bytes(bytes, &ByteFault::Truncate { keep })));
    }
    out.push(("bad-magic".into(), corrupt_bytes(bytes, &ByteFault::BadMagic)));
    for round in 0..4u64 {
        let fault = ByteFault::BitFlips { seed: seed.wrapping_add(round), flips: 3 };
        out.push((format!("bit-flips-{round}"), corrupt_bytes(bytes, &fault)));
    }
    if !bytes.is_empty() {
        let mut rng = Rng64::new(seed ^ 0xD7C2);
        for round in 0..4u64 {
            let offset = rng.below(bytes.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            out.push((
                format!("flip-at-{round}"),
                corrupt_bytes(bytes, &ByteFault::FlipAt { offset, bit }),
            ));
        }
    }
    out
}

/// Structural corruption of a parsed FBF binary. The mutant
/// re-serializes and (except where noted) re-parses cleanly — the
/// damage surfaces later, inside the analysis of the affected function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinFault {
    /// Overwrite the body of the `index`-th function symbol (address
    /// order) with seeded garbage words — the "data misclassified as
    /// code" case.
    GarbageOpcodes {
        /// Which function (by position in [`Binary::functions`]).
        index: usize,
        /// Garbage-word generator seed.
        seed: u64,
    },
    /// Make the `index`-th section claim a size that wraps the 32-bit
    /// address space. The parser must reject this
    /// ([`dtaint_fwbin::Error::SectionOutOfRange`]).
    LyingSectionSize {
        /// Which section.
        index: usize,
    },
    /// Give the `index`-th symbol an address range that wraps the
    /// address space. The parser must reject this
    /// ([`dtaint_fwbin::Error::BadSymbol`]).
    WrappingSymbol {
        /// Which symbol.
        index: usize,
    },
    /// Extend the first function symbol so it overlaps the second —
    /// both still parse, and the lifter sees one function running into
    /// another's body.
    OverlappingSymbols,
    /// Append a function symbol whose body lies outside every section —
    /// lifting it must fail, not panic.
    DanglingSymbol,
    /// Append a second function symbol at the entry of the `index`-th
    /// function symbol (address order), under another name and with
    /// half its size — two symbols naming one entry, as stripped and
    /// re-labelled firmware carries them.
    AliasedEntry {
        /// Which function (by position in [`Binary::functions`]).
        index: usize,
    },
}

/// Applies a [`BinFault`] to a copy of `bin`.
pub fn corrupt_binary(bin: &Binary, fault: &BinFault) -> Binary {
    let mut out = bin.clone();
    match fault {
        BinFault::GarbageOpcodes { index, seed } => {
            let funcs = out.functions();
            if let Some(f) = funcs.get(*index) {
                let (addr, size) = (f.addr, f.size);
                let mut rng = Rng64::new(*seed);
                if let Some(text) = out
                    .sections
                    .iter_mut()
                    .find(|s| s.kind == SectionKind::Text && s.contains(addr))
                {
                    let start = (addr - text.addr) as usize;
                    let end = (start + size as usize).min(text.data.len());
                    for chunk in text.data[start..end].chunks_mut(4) {
                        let word = rng.next_u64().to_le_bytes();
                        let n = chunk.len();
                        chunk.copy_from_slice(&word[..n]);
                    }
                }
            }
        }
        BinFault::LyingSectionSize { index } => {
            if let Some(s) = out.sections.get_mut(*index) {
                s.size = u32::MAX - s.addr / 2;
            }
        }
        BinFault::WrappingSymbol { index } => {
            if let Some(s) = out.symbols.get_mut(*index) {
                s.addr = u32::MAX - 4;
                s.size = 0x100;
            }
        }
        BinFault::OverlappingSymbols => {
            let funcs = out.functions();
            if funcs.len() >= 2 {
                let (first, second) = (funcs[0].addr, funcs[1].addr);
                let span = second.saturating_sub(first) + 8;
                if let Some(s) = out.symbols.iter_mut().find(|s| s.addr == first) {
                    s.size = span;
                }
            }
        }
        BinFault::DanglingSymbol => {
            let end = out.sections.iter().map(|s| s.addr.saturating_add(s.size)).max().unwrap_or(0);
            out.symbols.push(Symbol {
                name: "phantom".into(),
                addr: end.saturating_add(0x1000),
                size: 16,
                kind: SymbolKind::Function,
            });
        }
        BinFault::AliasedEntry { index } => {
            let alias = out.functions().get(*index).map(|f| Symbol {
                name: format!("{}_alias", f.name),
                addr: f.addr,
                size: ((f.size / 2) & !3).max(4),
                kind: SymbolKind::Function,
            });
            out.symbols.extend(alias);
        }
    }
    out
}

/// The standard byte-level + structural sweep over one FBF binary,
/// as named serialized mutants.
pub fn fbf_fault_corpus(bin: &Binary, seed: u64) -> Vec<(String, Vec<u8>)> {
    let bytes = bin.to_bytes();
    let mut out: Vec<(String, Vec<u8>)> = Vec::new();
    for keep in [0, 3, bytes.len() / 3, bytes.len().saturating_sub(5)] {
        out.push((
            format!("truncate-{keep}"),
            corrupt_bytes(&bytes, &ByteFault::Truncate { keep }),
        ));
    }
    out.push(("bad-magic".into(), corrupt_bytes(&bytes, &ByteFault::BadMagic)));
    for round in 0..4u64 {
        let fault = ByteFault::BitFlips { seed: seed.wrapping_add(round), flips: 8 };
        out.push((format!("bit-flips-{round}"), corrupt_bytes(&bytes, &fault)));
    }
    let n_funcs = bin.functions().len();
    for index in [0, n_funcs / 2, n_funcs.saturating_sub(1)] {
        let fault = BinFault::GarbageOpcodes { index, seed };
        out.push((format!("garbage-fn-{index}"), corrupt_binary(bin, &fault).to_bytes()));
    }
    out.push((
        "lying-section".into(),
        corrupt_binary(bin, &BinFault::LyingSectionSize { index: 0 }).to_bytes(),
    ));
    out.push((
        "wrapping-symbol".into(),
        corrupt_binary(bin, &BinFault::WrappingSymbol { index: 0 }).to_bytes(),
    ));
    out.push((
        "overlapping-symbols".into(),
        corrupt_binary(bin, &BinFault::OverlappingSymbols).to_bytes(),
    ));
    out.push(("dangling-symbol".into(), corrupt_binary(bin, &BinFault::DanglingSymbol).to_bytes()));
    let fault = BinFault::AliasedEntry { index: n_funcs / 2 };
    out.push(("aliased-entry".into(), corrupt_binary(bin, &fault).to_bytes()));
    out
}

/// The standard sweep over a packed FWI image: container-level byte
/// damage plus every [`fbf_fault_corpus`] mutant of each executable,
/// re-packed into an otherwise pristine image.
pub fn fwi_fault_corpus(img: &FwImage, seed: u64) -> Vec<(String, Vec<u8>)> {
    let packed = img.pack(false);
    let mut out: Vec<(String, Vec<u8>)> = Vec::new();
    for keep in [0, 4, packed.len() / 2] {
        out.push((
            format!("container-truncate-{keep}"),
            corrupt_bytes(&packed, &ByteFault::Truncate { keep }),
        ));
    }
    out.push(("container-bad-magic".into(), corrupt_bytes(&packed, &ByteFault::BadMagic)));
    for round in 0..2u64 {
        let fault = ByteFault::BitFlips { seed: seed.wrapping_add(round), flips: 16 };
        out.push((format!("container-bit-flips-{round}"), corrupt_bytes(&packed, &fault)));
    }
    for (i, f) in img.files.iter().enumerate() {
        let Ok(bin) = Binary::from_bytes(&f.data) else { continue };
        for (name, mutant) in fbf_fault_corpus(&bin, seed) {
            let mut mutated = img.clone();
            mutated.files[i].data = mutant;
            out.push((format!("{}-{name}", f.path.replace('/', "_")), mutated.pack(false)));
        }
    }
    out
}

/// True when the section table still covers every symbol — a sanity
/// helper for tests that want to distinguish "parses but is damaged"
/// mutants from "must be rejected" mutants.
pub fn symbols_mapped(bin: &Binary) -> bool {
    bin.symbols.iter().all(|sym| {
        bin.sections
            .iter()
            .any(|s| s.contains(sym.addr) && sym.addr.saturating_add(sym.size) <= s.addr + s.size)
    })
}

/// Keeps `Section` importable for downstream corpus builders without a
/// direct `dtaint-fwbin` dependency.
pub type FbfSection = Section;

#[cfg(test)]
mod tests {
    use super::*;
    use dtaint_fwbin::Error;

    fn small_binary() -> Binary {
        let mut profile = crate::table2_profiles().remove(0);
        profile.total_functions = 30;
        let fw = crate::build_firmware(&profile);
        let bins = dtaint_fwimage::extract_binaries(&fw.image).unwrap();
        bins.into_iter().next().unwrap().1
    }

    #[test]
    fn rng_is_deterministic_and_nonzero_seeded() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut z = Rng64::new(0);
        assert_ne!(z.next_u64(), 0, "zero seed must be remapped");
    }

    #[test]
    fn byte_faults_are_deterministic() {
        let bin = small_binary();
        let bytes = bin.to_bytes();
        let f = ByteFault::BitFlips { seed: 7, flips: 32 };
        assert_eq!(corrupt_bytes(&bytes, &f), corrupt_bytes(&bytes, &f));
        assert_ne!(corrupt_bytes(&bytes, &f), bytes);
        assert_eq!(corrupt_bytes(&bytes, &ByteFault::Truncate { keep: 10 }).len(), 10);
    }

    #[test]
    fn flip_at_touches_exactly_one_bit() {
        let bytes = vec![0u8; 16];
        let flipped = corrupt_bytes(&bytes, &ByteFault::FlipAt { offset: 5, bit: 3 });
        assert_eq!(flipped[5], 1 << 3);
        let ones: u32 = flipped.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        // Out-of-range offset is a no-op, not a panic.
        assert_eq!(corrupt_bytes(&bytes, &ByteFault::FlipAt { offset: 999, bit: 0 }), bytes);
    }

    #[test]
    fn store_fault_corpus_is_deterministic_and_covers_operators() {
        let artifact: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        let a = store_fault_corpus(&artifact, 11);
        let b = store_fault_corpus(&artifact, 11);
        assert_eq!(a, b);
        assert!(a.iter().any(|(n, _)| n.starts_with("truncate-")));
        assert!(a.iter().any(|(n, _)| n == "bad-magic"));
        assert!(a.iter().any(|(n, _)| n.starts_with("bit-flips-")));
        assert!(a.iter().any(|(n, _)| n.starts_with("flip-at-")));
        assert!(a.len() >= 12, "sweep covers every operator: {}", a.len());
    }

    #[test]
    fn lying_section_and_wrapping_symbol_are_rejected_by_parser() {
        let bin = small_binary();
        let lying = corrupt_binary(&bin, &BinFault::LyingSectionSize { index: 0 });
        assert!(matches!(
            Binary::from_bytes(&lying.to_bytes()),
            Err(Error::SectionOutOfRange { .. })
        ));
        let wrapping = corrupt_binary(&bin, &BinFault::WrappingSymbol { index: 0 });
        assert!(matches!(Binary::from_bytes(&wrapping.to_bytes()), Err(Error::BadSymbol { .. })));
    }

    #[test]
    fn garbage_opcodes_keep_the_binary_parseable() {
        let bin = small_binary();
        let mutant = corrupt_binary(&bin, &BinFault::GarbageOpcodes { index: 0, seed: 9 });
        let reparsed = Binary::from_bytes(&mutant.to_bytes()).unwrap();
        assert_eq!(reparsed.functions().len(), bin.functions().len());
        assert_ne!(reparsed.section(SectionKind::Text), bin.section(SectionKind::Text));
    }

    #[test]
    fn aliased_entry_adds_a_shorter_symbol_at_an_existing_entry() {
        let bin = small_binary();
        let target = bin.functions()[3].clone();
        let mutant = corrupt_binary(&bin, &BinFault::AliasedEntry { index: 3 });
        let reparsed = Binary::from_bytes(&mutant.to_bytes()).unwrap();
        assert_eq!(reparsed.functions().len(), bin.functions().len() + 1);
        let at_entry: Vec<&Symbol> =
            reparsed.functions().into_iter().filter(|s| s.addr == target.addr).collect();
        assert_eq!(at_entry.len(), 2);
        assert_eq!(*at_entry[0], target, "the original symbol comes first");
        assert_eq!(at_entry[1].name, format!("{}_alias", target.name));
        assert!(at_entry[1].size < target.size && at_entry[1].size.is_multiple_of(4));
        assert!(symbols_mapped(&reparsed));
    }

    #[test]
    fn dangling_symbol_is_unmapped() {
        let bin = small_binary();
        assert!(symbols_mapped(&bin));
        let mutant = corrupt_binary(&bin, &BinFault::DanglingSymbol);
        assert!(!symbols_mapped(&mutant));
    }

    #[test]
    fn corpora_are_nonempty_and_deterministic() {
        let bin = small_binary();
        let a = fbf_fault_corpus(&bin, 3);
        let b = fbf_fault_corpus(&bin, 3);
        assert_eq!(a, b);
        assert!(a.len() >= 10, "sweep covers every operator: {}", a.len());
        let mut profile = crate::table2_profiles().remove(0);
        profile.total_functions = 30;
        let fw = crate::build_firmware(&profile);
        let c = fwi_fault_corpus(&fw.image, 3);
        assert!(c.len() > a.len(), "image corpus embeds the binary corpus");
    }
}

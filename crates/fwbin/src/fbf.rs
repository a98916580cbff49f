//! FBF — the Firmware Binary Format.
//!
//! FBF plays the role ELF plays for real firmware: it carries loadable
//! sections, a function symbol table, and an import table mapping library
//! function names (`strcpy`, `recv`, `system`, …) to PLT-like stub
//! addresses. The DTaint pipeline consumes exactly this information:
//! function boundaries to build CFGs, and import stubs to recognise
//! sources and sinks at call sites.
//!
//! The on-disk encoding is little-endian with length-prefixed strings; see
//! [`Binary::to_bytes`] / [`Binary::from_bytes`] for the round trip.

use crate::{Arch, Error, Result};
use bytes::{Buf, BufMut};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Magic bytes opening every serialized FBF binary.
pub const FBF_MAGIC: [u8; 4] = *b"FBF1";

/// The role of a section within the binary image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Executable code.
    Text,
    /// Import stubs (procedure linkage table).
    Plt,
    /// Read-only data (string literals, jump tables).
    RoData,
    /// Initialised writable data.
    Data,
    /// Zero-initialised writable data (no bytes stored).
    Bss,
}

impl SectionKind {
    fn to_u8(self) -> u8 {
        match self {
            SectionKind::Text => 0,
            SectionKind::Plt => 1,
            SectionKind::RoData => 2,
            SectionKind::Data => 3,
            SectionKind::Bss => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => SectionKind::Text,
            1 => SectionKind::Plt,
            2 => SectionKind::RoData,
            3 => SectionKind::Data,
            4 => SectionKind::Bss,
            _ => return Err(Error::BadFormat(format!("unknown section kind {v}"))),
        })
    }
}

/// A loadable section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (`.text`, `.plt`, `.rodata`, `.data`, `.bss`).
    pub name: String,
    /// The section's role.
    pub kind: SectionKind,
    /// Load address of the first byte.
    pub addr: u32,
    /// Size in bytes; for [`SectionKind::Bss`] this exceeds `data.len()`.
    pub size: u32,
    /// Raw bytes (empty for BSS).
    pub data: Vec<u8>,
}

impl Section {
    /// True when `addr` falls inside this section.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.addr && addr < self.addr.wrapping_add(self.size)
    }

    /// Copies the bytes from offset `off` into `out`; bytes past the
    /// stored data (BSS) read as zero, so `out` must start zeroed.
    fn copy_into(&self, off: usize, out: &mut [u8]) {
        if off < self.data.len() {
            let n = (self.data.len() - off).min(out.len());
            out[..n].copy_from_slice(&self.data[off..off + n]);
        }
    }
}

/// The kind of a defined symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// A function entry point in `.text`.
    Function,
    /// A data object (rodata/data/bss).
    Object,
}

/// A defined symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Address of the first byte.
    pub addr: u32,
    /// Size in bytes.
    pub size: u32,
    /// Function or data object.
    pub kind: SymbolKind,
}

/// An imported library function, reachable through a PLT stub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Import {
    /// Library function name (e.g. `strcpy`).
    pub name: String,
    /// Address of the stub that call instructions target.
    pub stub_addr: u32,
}

/// A loaded firmware binary.
///
/// # Examples
///
/// ```
/// use dtaint_fwbin::asm::Assembler;
/// use dtaint_fwbin::link::BinaryBuilder;
/// use dtaint_fwbin::{Arch, Binary};
///
/// let mut a = Assembler::new(Arch::Mips32e);
/// a.ret();
/// let mut b = BinaryBuilder::new(Arch::Mips32e);
/// b.add_function("main", a);
/// let bin = b.link()?;
/// let bytes = bin.to_bytes();
/// let reloaded = Binary::from_bytes(&bytes)?;
/// assert_eq!(bin, reloaded);
/// # Ok::<(), dtaint_fwbin::Error>(())
/// ```
///
/// # Lookup index
///
/// [`Binary::function_at`] and [`Binary::import_at`] answer from an
/// index over `symbols` and `imports` that the first lookup builds. The
/// index takes no part in equality, `Debug` or [`Binary::to_bytes`], and
/// a clone starts without one. It is not rebuilt when `symbols` or
/// `imports` change, so edit them before the first lookup — or, like
/// `fwgen`'s corruption operators, on a fresh clone.
#[derive(Clone, PartialEq, Eq)]
pub struct Binary {
    /// Guest architecture of the code sections.
    pub arch: Arch,
    /// Entry-point address.
    pub entry: u32,
    /// Loadable sections, in address order.
    pub sections: Vec<Section>,
    /// Defined symbols.
    pub symbols: Vec<Symbol>,
    /// Imported library functions.
    pub imports: Vec<Import>,
    index: LookupIndex,
}

impl fmt::Debug for Binary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Binary")
            .field("arch", &self.arch)
            .field("entry", &self.entry)
            .field("sections", &self.sections)
            .field("symbols", &self.symbols)
            .field("imports", &self.imports)
            .finish()
    }
}

/// The lazily built lookup index of a [`Binary`]. Every index equals
/// every other and a clone is unbuilt, so it never shows in the
/// `Binary`'s derived traits.
#[derive(Default)]
struct LookupIndex(OnceLock<Index>);

impl Clone for LookupIndex {
    fn clone(&self) -> Self {
        LookupIndex::default()
    }
}

impl PartialEq for LookupIndex {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for LookupIndex {}

struct Index {
    /// Function ranges `(start, end, position in symbols)` sorted by
    /// start, leaving out empty and address-wrapping ranges (they never
    /// match). `None` when two ranges overlap: lookups then scan the
    /// table, so the first match in table order still wins.
    functions: Option<Vec<(u32, u32, usize)>>,
    /// Stub address → position of the first import in table order.
    stubs: HashMap<u32, usize>,
}

impl Index {
    fn build(symbols: &[Symbol], imports: &[Import]) -> Index {
        let mut ranges: Vec<(u32, u32, usize)> = symbols
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == SymbolKind::Function && s.size > 0)
            .filter_map(|(i, s)| Some((s.addr, s.addr.checked_add(s.size)?, i)))
            .collect();
        ranges.sort_unstable();
        let overlapping = ranges.windows(2).any(|w| w[1].0 < w[0].1);
        let mut stubs = HashMap::with_capacity(imports.len());
        for (i, imp) in imports.iter().enumerate() {
            stubs.entry(imp.stub_addr).or_insert(i);
        }
        Index { functions: (!overlapping).then_some(ranges), stubs }
    }
}

/// Shape statistics of one [`Binary`] (see [`Binary::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinStats {
    /// Loadable sections.
    pub sections: usize,
    /// Defined symbols of every kind.
    pub symbols: usize,
    /// Function symbols.
    pub functions: usize,
    /// Imported library functions.
    pub imports: usize,
    /// Bytes of executable code (text + PLT sections).
    pub code_bytes: u64,
}

impl Binary {
    /// A binary made of the given parts.
    pub fn new(
        arch: Arch,
        entry: u32,
        sections: Vec<Section>,
        symbols: Vec<Symbol>,
        imports: Vec<Import>,
    ) -> Binary {
        Binary { arch, entry, sections, symbols, imports, index: LookupIndex::default() }
    }

    fn index(&self) -> &Index {
        self.index.0.get_or_init(|| Index::build(&self.symbols, &self.imports))
    }

    /// The section of the given kind, if present.
    pub fn section(&self, kind: SectionKind) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    /// The section containing `addr`, if any.
    pub fn section_at(&self, addr: u32) -> Option<&Section> {
        self.sections.iter().find(|s| s.contains(addr))
    }

    /// True when `addr` lies in an immutable section (text, PLT,
    /// rodata) whose load-time bytes are the runtime bytes. Loads from
    /// writable sections must stay symbolic in static analysis.
    pub fn is_immutable_addr(&self, addr: u32) -> bool {
        matches!(
            self.section_at(addr).map(|s| s.kind),
            Some(SectionKind::Text | SectionKind::Plt | SectionKind::RoData)
        )
    }

    /// The function symbol with the given name.
    pub fn function(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.kind == SymbolKind::Function && s.name == name)
    }

    /// Whole-binary shape statistics — the telemetry layer publishes
    /// these as per-image gauges.
    pub fn stats(&self) -> BinStats {
        BinStats {
            sections: self.sections.len(),
            symbols: self.symbols.len(),
            functions: self.symbols.iter().filter(|s| s.kind == SymbolKind::Function).count(),
            imports: self.imports.len(),
            code_bytes: self
                .sections
                .iter()
                .filter(|s| matches!(s.kind, SectionKind::Text | SectionKind::Plt))
                .map(|s| u64::from(s.size))
                .sum(),
        }
    }

    /// All function symbols in address order.
    pub fn functions(&self) -> Vec<&Symbol> {
        let mut v: Vec<&Symbol> =
            self.symbols.iter().filter(|s| s.kind == SymbolKind::Function).collect();
        v.sort_by_key(|s| s.addr);
        v
    }

    /// The function symbol covering `addr`, if any: the first in table
    /// order when ranges overlap. Empty and address-wrapping ranges
    /// cover nothing.
    pub fn function_at(&self, addr: u32) -> Option<&Symbol> {
        let Some(ranges) = &self.index().functions else {
            return self.symbols.iter().find(|s| {
                s.kind == SymbolKind::Function
                    && addr >= s.addr
                    && s.addr.checked_add(s.size).is_some_and(|end| addr < end)
            });
        };
        let i = ranges.partition_point(|&(start, _, _)| start <= addr);
        let &(_, end, pos) = ranges.get(i.checked_sub(1)?)?;
        (addr < end).then(|| &self.symbols[pos])
    }

    /// The import whose stub is at `addr`, if any (the first in table
    /// order when stubs repeat).
    pub fn import_at(&self, addr: u32) -> Option<&Import> {
        self.index().stubs.get(&addr).map(|&i| &self.imports[i])
    }

    /// The section holding all of `[addr, addr + len)`, with `addr`'s
    /// offset into it.
    fn span(&self, addr: u32, len: u32) -> Option<(&Section, usize)> {
        let s = self.section_at(addr)?;
        let end = addr.checked_add(len)?;
        if end > s.addr + s.size {
            return None;
        }
        Some((s, (addr - s.addr) as usize))
    }

    /// Reads `len` bytes at `addr` from whichever section contains them.
    ///
    /// BSS reads return zeroes. Returns `None` when the range is unmapped
    /// or straddles a section boundary.
    pub fn bytes_at(&self, addr: u32, len: u32) -> Option<Vec<u8>> {
        let (s, off) = self.span(addr, len)?;
        let mut out = vec![0u8; len as usize];
        s.copy_into(off, &mut out);
        Some(out)
    }

    /// Reads `N` bytes at `addr` without allocating, with the semantics
    /// of [`Binary::bytes_at`].
    pub fn array_at<const N: usize>(&self, addr: u32) -> Option<[u8; N]> {
        let (s, off) = self.span(addr, N as u32)?;
        let mut out = [0u8; N];
        s.copy_into(off, &mut out);
        Some(out)
    }

    /// Reads a little-endian 32-bit word at `addr`.
    pub fn read_u32(&self, addr: u32) -> Option<u32> {
        self.array_at(addr).map(u32::from_le_bytes)
    }

    /// Reads a NUL-terminated string at `addr` (for rodata literals).
    pub fn cstr_at(&self, addr: u32) -> Option<String> {
        let s = self.sections.iter().find(|s| s.contains(addr))?;
        let off = (addr - s.addr) as usize;
        let rest = s.data.get(off..)?;
        let end = rest.iter().position(|&b| b == 0)?;
        String::from_utf8(rest[..end].to_vec()).ok()
    }

    /// Total size in bytes across all sections (the paper's "Size (KB)").
    pub fn total_size(&self) -> u32 {
        self.sections.iter().map(|s| s.size).sum()
    }

    /// Serialises the binary to its on-disk FBF encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(64 + self.sections.iter().map(|s| s.data.len()).sum::<usize>());
        out.put_slice(&FBF_MAGIC);
        out.put_u8(match self.arch {
            Arch::Arm32e => 0,
            Arch::Mips32e => 1,
        });
        out.put_u32_le(self.entry);
        out.put_u16_le(self.sections.len() as u16);
        for s in &self.sections {
            put_str(&mut out, &s.name);
            out.put_u8(s.kind.to_u8());
            out.put_u32_le(s.addr);
            out.put_u32_le(s.size);
            out.put_u32_le(s.data.len() as u32);
            out.put_slice(&s.data);
        }
        out.put_u32_le(self.symbols.len() as u32);
        for s in &self.symbols {
            put_str(&mut out, &s.name);
            out.put_u32_le(s.addr);
            out.put_u32_le(s.size);
            out.put_u8(match s.kind {
                SymbolKind::Function => 0,
                SymbolKind::Object => 1,
            });
        }
        out.put_u16_le(self.imports.len() as u16);
        for i in &self.imports {
            put_str(&mut out, &i.name);
            out.put_u32_le(i.stub_addr);
        }
        out
    }

    /// Parses a binary from its on-disk FBF encoding.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFormat`] on a bad magic, unknown enum value or
    /// malformed string, [`Error::Truncated`] when the input ends early
    /// (including a symbol count larger than the remaining input),
    /// [`Error::SectionOutOfRange`] when a section lies about its
    /// extent, and [`Error::BadSymbol`] when a symbol's address range
    /// wraps the address space.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Binary> {
        let magic = take(&mut buf, 4)?;
        if magic != FBF_MAGIC {
            return Err(Error::BadFormat("bad magic".into()));
        }
        let arch = match get_u8(&mut buf)? {
            0 => Arch::Arm32e,
            1 => Arch::Mips32e,
            v => return Err(Error::BadFormat(format!("unknown arch {v}"))),
        };
        let entry = get_u32(&mut buf)?;
        let n_sections = get_u16(&mut buf)? as usize;
        let mut sections = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            let name = get_str(&mut buf)?;
            let kind = SectionKind::from_u8(get_u8(&mut buf)?)?;
            let addr = get_u32(&mut buf)?;
            let size = get_u32(&mut buf)?;
            let data_len = get_u32(&mut buf)? as usize;
            // A section whose claimed range wraps the 32-bit address
            // space, or that stores more bytes than it spans, is lying
            // about its extent.
            if addr.checked_add(size).is_none() || data_len as u64 > size as u64 {
                return Err(Error::SectionOutOfRange { name, addr, size });
            }
            let data = take(&mut buf, data_len)?.to_vec();
            sections.push(Section { name, kind, addr, size, data });
        }
        let n_symbols = get_u32(&mut buf)? as usize;
        // Each symbol occupies at least 11 encoded bytes; a count that
        // cannot fit in the remaining input is corrupt, and reserving
        // for it up front would abort on allocation before the loop
        // ever hit `Truncated`.
        if n_symbols > buf.remaining() / 11 {
            return Err(Error::Truncated);
        }
        let mut symbols = Vec::with_capacity(n_symbols);
        for _ in 0..n_symbols {
            let name = get_str(&mut buf)?;
            let addr = get_u32(&mut buf)?;
            let size = get_u32(&mut buf)?;
            let kind = match get_u8(&mut buf)? {
                0 => SymbolKind::Function,
                1 => SymbolKind::Object,
                v => return Err(Error::BadFormat(format!("unknown symbol kind {v}"))),
            };
            if addr.checked_add(size).is_none() {
                return Err(Error::BadSymbol { name, addr });
            }
            symbols.push(Symbol { name, addr, size, kind });
        }
        let n_imports = get_u16(&mut buf)? as usize;
        let mut imports = Vec::with_capacity(n_imports);
        for _ in 0..n_imports {
            let name = get_str(&mut buf)?;
            let stub_addr = get_u32(&mut buf)?;
            imports.push(Import { name, stub_addr });
        }
        Ok(Binary::new(arch, entry, sections, symbols, imports))
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u16_le(s.len() as u16);
    out.put_slice(s.as_bytes());
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.remaining() < n {
        return Err(Error::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(Error::Truncated);
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8]) -> Result<u16> {
    if buf.remaining() < 2 {
        return Err(Error::Truncated);
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(Error::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    let len = get_u16(buf)? as usize;
    let bytes = take(buf, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| Error::BadFormat("non-utf8 string".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_binary() -> Binary {
        Binary::new(
            Arch::Arm32e,
            0x10000,
            vec![
                Section {
                    name: ".text".into(),
                    kind: SectionKind::Text,
                    addr: 0x10000,
                    size: 8,
                    data: vec![1, 2, 3, 4, 5, 6, 7, 8],
                },
                Section {
                    name: ".rodata".into(),
                    kind: SectionKind::RoData,
                    addr: 0x20000,
                    size: 6,
                    data: b"hi\0yo\0".to_vec(),
                },
                Section {
                    name: ".bss".into(),
                    kind: SectionKind::Bss,
                    addr: 0x30000,
                    size: 64,
                    data: vec![],
                },
            ],
            vec![
                Symbol { name: "main".into(), addr: 0x10000, size: 8, kind: SymbolKind::Function },
                Symbol { name: "greet".into(), addr: 0x20000, size: 3, kind: SymbolKind::Object },
            ],
            vec![Import { name: "strcpy".into(), stub_addr: 0x18000 }],
        )
    }

    fn func(name: &str, addr: u32, size: u32) -> Symbol {
        Symbol { name: name.into(), addr, size, kind: SymbolKind::Function }
    }

    /// The table scan the index replaces, with checked range ends.
    fn linear_function_at(b: &Binary, addr: u32) -> Option<&Symbol> {
        b.symbols.iter().find(|s| {
            s.kind == SymbolKind::Function
                && addr >= s.addr
                && s.addr.checked_add(s.size).is_some_and(|end| addr < end)
        })
    }

    /// Asserts indexed lookups equal the table scans around every symbol
    /// and stub.
    fn assert_lookups_match_scan(b: &Binary) {
        let mut probes: Vec<u32> = Vec::new();
        for s in &b.symbols {
            let end = s.addr.wrapping_add(s.size);
            probes.extend([s.addr, s.addr.wrapping_sub(1), end, end.wrapping_sub(1)]);
        }
        for i in &b.imports {
            probes.extend([i.stub_addr, i.stub_addr.wrapping_sub(4), i.stub_addr.wrapping_add(4)]);
        }
        for addr in probes {
            let got = b.function_at(addr).map(|s| s as *const Symbol);
            let want = linear_function_at(b, addr).map(|s| s as *const Symbol);
            assert_eq!(got, want, "function_at({addr:#x})");
            let got = b.import_at(addr).map(|i| i as *const Import);
            let want = b.imports.iter().find(|i| i.stub_addr == addr).map(|i| i as *const Import);
            assert_eq!(got, want, "import_at({addr:#x})");
        }
    }

    #[test]
    fn roundtrip_serialisation() {
        let b = sample_binary();
        let reloaded = Binary::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(b, reloaded);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_binary().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(Binary::from_bytes(&bytes), Err(Error::BadFormat(_))));
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = sample_binary().to_bytes();
        for len in 0..bytes.len() {
            let r = Binary::from_bytes(&bytes[..len]);
            assert!(r.is_err(), "prefix of {len} bytes should not parse");
        }
    }

    #[test]
    fn section_lookup_and_reads() {
        let b = sample_binary();
        assert_eq!(b.section(SectionKind::Text).unwrap().addr, 0x10000);
        assert_eq!(b.read_u32(0x10000), Some(u32::from_le_bytes([1, 2, 3, 4])));
        assert_eq!(b.read_u32(0x10004), Some(u32::from_le_bytes([5, 6, 7, 8])));
        // Straddling the end of a section fails.
        assert_eq!(b.read_u32(0x10006), None);
        // Unmapped address fails.
        assert_eq!(b.read_u32(0x50000), None);
        // BSS reads back as zeroes.
        assert_eq!(b.read_u32(0x30010), Some(0));
        // Narrow reads keep the same rules as `bytes_at`.
        assert_eq!(b.array_at::<2>(0x10006), Some([7, 8]));
        assert_eq!(b.array_at::<2>(0x10007), None);
        assert_eq!(b.array_at::<1>(0x20005), Some([0]));
        assert_eq!(b.array_at::<1>(0x50000), None);
        assert_eq!(b.array_at::<2>(0x3003e), Some([0, 0]));
        assert_eq!(b.array_at::<2>(0x3003f), None);
        for addr in [0x10000, 0x10006, 0x20004, 0x3003e, 0x3003f, 0x50000] {
            assert_eq!(b.array_at::<2>(addr).map(Vec::from), b.bytes_at(addr, 2), "{addr:#x}");
        }
    }

    #[test]
    fn cstr_reads_nul_terminated() {
        let b = sample_binary();
        assert_eq!(b.cstr_at(0x20000).as_deref(), Some("hi"));
        assert_eq!(b.cstr_at(0x20003).as_deref(), Some("yo"));
        assert_eq!(b.cstr_at(0x10000 - 1), None);
    }

    #[test]
    fn symbol_lookups() {
        let b = sample_binary();
        assert_eq!(b.function("main").unwrap().addr, 0x10000);
        assert!(b.function("greet").is_none(), "objects are not functions");
        assert_eq!(b.function_at(0x10004).unwrap().name, "main");
        assert_eq!(b.function_at(0x10008), None, "end is exclusive");
        assert_eq!(b.import_at(0x18000).unwrap().name, "strcpy");
        assert_eq!(b.functions().len(), 1);
        assert_lookups_match_scan(&b);
    }

    #[test]
    fn index_is_invisible() {
        let built = sample_binary();
        assert!(built.function_at(0x10000).is_some());
        let fresh = sample_binary();
        assert_eq!(built, fresh);
        assert_eq!(format!("{built:?}"), format!("{fresh:?}"));
        assert!(!format!("{built:?}").contains("index"));
        assert_eq!(built.to_bytes(), fresh.to_bytes());
    }

    #[test]
    fn duplicate_stubs_resolve_to_the_first_import() {
        let mut b = sample_binary();
        b.imports = vec![
            Import { name: "recv".into(), stub_addr: 0x18000 },
            Import { name: "strcpy".into(), stub_addr: 0x18004 },
            Import { name: "read".into(), stub_addr: 0x18000 },
        ];
        assert_eq!(b.import_at(0x18000).unwrap().name, "recv");
        assert_eq!(b.import_at(0x18004).unwrap().name, "strcpy");
        assert_eq!(b.import_at(0x18008), None);
        assert_lookups_match_scan(&b);
    }

    #[test]
    fn zero_size_functions_and_objects_never_match() {
        let mut b = sample_binary();
        b.symbols = vec![
            func("empty", 0x10000, 0),
            Symbol { name: "table".into(), addr: 0x10000, size: 8, kind: SymbolKind::Object },
            func("tail", 0x10004, 4),
        ];
        assert_eq!(b.function_at(0x10000), None, "zero size and objects cover nothing");
        assert_eq!(b.function_at(0x10004).unwrap().name, "tail");
        assert_lookups_match_scan(&b);
    }

    #[test]
    fn overlapping_ranges_keep_table_order() {
        let mut b = sample_binary();
        b.symbols = vec![func("inner", 0x10004, 4), func("outer", 0x10000, 0x10)];
        assert_eq!(b.function_at(0x10004).unwrap().name, "inner");
        assert_eq!(b.function_at(0x10000).unwrap().name, "outer");
        assert_lookups_match_scan(&b);
        b = b.clone();
        b.symbols.reverse();
        assert_eq!(b.function_at(0x10004).unwrap().name, "outer");
        assert_lookups_match_scan(&b);
        // Identical ranges overlap too: the first one wins.
        b = b.clone();
        b.symbols = vec![func("a", 0x10000, 8), func("b", 0x10000, 8)];
        assert_eq!(b.function_at(0x10004).unwrap().name, "a");
    }

    #[test]
    fn wrapping_ranges_match_nothing() {
        let mut b = sample_binary();
        b.symbols.push(func("wraps", u32::MAX - 4, 0x100));
        b.symbols.push(func("to_the_top", u32::MAX - 0xf, 0x10));
        assert_eq!(b.function_at(u32::MAX - 4), None);
        assert_eq!(b.function_at(u32::MAX), None);
        assert_eq!(b.function_at(0x10), None);
        assert_eq!(b.function_at(0x10000).unwrap().name, "main");
        assert_lookups_match_scan(&b);
    }

    #[test]
    fn a_clone_rebuilds_its_index() {
        let b = sample_binary();
        assert_eq!(b.function_at(0x10004).unwrap().name, "main");
        assert_eq!(b.import_at(0x18000).unwrap().name, "strcpy");
        let mut c = b.clone();
        c.symbols[0].size = 4;
        c.symbols.push(func("second", 0x10004, 4));
        c.imports[0].stub_addr = 0x18010;
        assert_eq!(c.function_at(0x10004).unwrap().name, "second");
        assert_eq!(c.import_at(0x18000), None);
        assert_eq!(c.import_at(0x18010).unwrap().name, "strcpy");
        assert_lookups_match_scan(&c);
        // The original keeps answering from its own tables.
        assert_eq!(b.function_at(0x10004).unwrap().name, "main");
    }

    #[test]
    fn total_size_sums_sections() {
        assert_eq!(sample_binary().total_size(), 8 + 6 + 64);
    }

    proptest! {
        #[test]
        fn from_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Binary::from_bytes(&data);
        }

        #[test]
        fn roundtrip_arbitrary_section_bytes(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let b = Binary::new(
                Arch::Mips32e,
                0,
                vec![Section {
                    name: ".text".into(),
                    kind: SectionKind::Text,
                    addr: 0x1000,
                    size: data.len() as u32,
                    data: data.clone(),
                }],
                vec![],
                vec![],
            );
            prop_assert_eq!(Binary::from_bytes(&b.to_bytes()).unwrap(), b);
        }
    }
}

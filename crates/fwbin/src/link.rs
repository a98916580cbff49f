//! A static linker: lays out sections, resolves fixups, emits a [`Binary`].
//!
//! The layout mirrors a stripped-down embedded ELF image:
//!
//! ```text
//! 0x0001_0000  .text    functions, in insertion order
//!       …      .plt     one 8-byte stub per import (ret; nop)
//!       …      .rodata  string literals & tables
//!       …      .data    initialised objects
//!       …      .bss     zero-initialised objects (size only)
//! ```
//!
//! Calls ([`Fixup::Rel26`]) resolve against functions *and* import stubs;
//! local branches ([`Fixup::Rel16`]) resolve only against the emitting
//! function's labels; address loads ([`Fixup::AbsHi`]/[`Fixup::AbsLo`])
//! resolve against any global symbol, which is how function pointers end up
//! in data structures — the pattern DTaint's layout-similarity analysis
//! recovers.

use crate::asm::{Assembler, Fixup};
use crate::fbf::{Binary, Import, Section, SectionKind, Symbol, SymbolKind};
use crate::{Arch, Error, Reg, Result, INS_SIZE};
use std::collections::HashMap;

/// Base address of the `.text` section.
pub const TEXT_BASE: u32 = 0x0001_0000;
/// Size in bytes of one import stub in `.plt`.
pub const PLT_STUB_SIZE: u32 = 8;

/// Builds a [`Binary`] from assembled functions, data objects and imports.
///
/// See the [crate-level example](crate) for end-to-end usage.
#[derive(Debug, Clone)]
pub struct BinaryBuilder {
    arch: Arch,
    funcs: Vec<(String, Assembler)>,
    rodata: Vec<(String, Vec<u8>)>,
    data: Vec<(String, Vec<u8>)>,
    bss: Vec<(String, u32)>,
    imports: Vec<String>,
    entry: Option<String>,
}

impl BinaryBuilder {
    /// Creates an empty builder for `arch`.
    pub fn new(arch: Arch) -> Self {
        BinaryBuilder {
            arch,
            funcs: Vec::new(),
            rodata: Vec::new(),
            data: Vec::new(),
            bss: Vec::new(),
            imports: Vec::new(),
            entry: None,
        }
    }

    /// The target architecture.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Adds an assembled function.
    ///
    /// # Panics
    ///
    /// Panics if the assembler's architecture differs from the builder's.
    pub fn add_function(&mut self, name: &str, asm: Assembler) -> &mut Self {
        assert_eq!(asm.arch(), self.arch, "function `{name}` assembled for wrong arch");
        self.funcs.push((name.to_owned(), asm));
        self
    }

    /// Declares an imported library function (idempotent).
    pub fn add_import(&mut self, name: &str) -> &mut Self {
        if !self.imports.iter().any(|i| i == name) {
            self.imports.push(name.to_owned());
        }
        self
    }

    /// Adds a read-only data object.
    pub fn add_rodata(&mut self, name: &str, bytes: Vec<u8>) -> &mut Self {
        self.rodata.push((name.to_owned(), bytes));
        self
    }

    /// Adds a NUL-terminated string literal to `.rodata`.
    pub fn add_cstring(&mut self, name: &str, s: &str) -> &mut Self {
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        self.add_rodata(name, bytes)
    }

    /// Adds an initialised writable data object.
    pub fn add_data(&mut self, name: &str, bytes: Vec<u8>) -> &mut Self {
        self.data.push((name.to_owned(), bytes));
        self
    }

    /// Adds a zero-initialised object of `size` bytes to `.bss`.
    pub fn add_bss(&mut self, name: &str, size: u32) -> &mut Self {
        self.bss.push((name.to_owned(), size));
        self
    }

    /// Selects the entry-point function (defaults to the first added).
    pub fn set_entry(&mut self, name: &str) -> &mut Self {
        self.entry = Some(name.to_owned());
        self
    }

    /// Number of functions added so far.
    pub fn function_count(&self) -> usize {
        self.funcs.len()
    }

    /// Lays out the image, resolves every fixup and emits the binary.
    ///
    /// # Errors
    ///
    /// * [`Error::DuplicateLabel`] — two globals share a name.
    /// * [`Error::UndefinedLabel`] — a fixup references an unknown label or
    ///   symbol (including a call to a never-declared import).
    /// * [`Error::BranchOutOfRange`] — a resolved offset does not fit its
    ///   field.
    pub fn link(&self) -> Result<Binary> {
        // Pass 1: assign addresses.
        let mut func_addrs: HashMap<String, u32> = HashMap::new();
        let mut cursor = TEXT_BASE;
        for (name, asm) in &self.funcs {
            if func_addrs.insert(name.clone(), cursor).is_some() {
                return Err(Error::DuplicateLabel(name.clone()));
            }
            cursor += asm.len_words() * INS_SIZE;
        }
        let text_size = cursor - TEXT_BASE;

        let plt_base = align(cursor, 0x10);
        let mut stub_addrs: HashMap<String, u32> = HashMap::new();
        for (i, name) in self.imports.iter().enumerate() {
            let addr = plt_base + i as u32 * PLT_STUB_SIZE;
            if func_addrs.contains_key(name) || stub_addrs.insert(name.clone(), addr).is_some() {
                return Err(Error::DuplicateLabel(name.clone()));
            }
        }
        let plt_size = self.imports.len() as u32 * PLT_STUB_SIZE;

        let rodata_base = align(plt_base + plt_size, 0x10);
        let mut globals: HashMap<String, u32> = HashMap::new();
        let mut object_syms: Vec<Symbol> = Vec::new();
        let mut rodata_bytes = Vec::new();
        let mut off = 0;
        for (name, bytes) in &self.rodata {
            let addr = rodata_base + off;
            if globals.insert(name.clone(), addr).is_some() {
                return Err(Error::DuplicateLabel(name.clone()));
            }
            object_syms.push(Symbol {
                name: name.clone(),
                addr,
                size: bytes.len() as u32,
                kind: SymbolKind::Object,
            });
            rodata_bytes.extend_from_slice(bytes);
            off += bytes.len() as u32;
            let pad = align(off, 4) - off;
            rodata_bytes.extend(std::iter::repeat_n(0, pad as usize));
            off += pad;
        }
        let rodata_size = off;

        let data_base = align(rodata_base + rodata_size, 0x10);
        let mut data_bytes = Vec::new();
        let mut off = 0;
        for (name, bytes) in &self.data {
            let addr = data_base + off;
            if globals.insert(name.clone(), addr).is_some() {
                return Err(Error::DuplicateLabel(name.clone()));
            }
            object_syms.push(Symbol {
                name: name.clone(),
                addr,
                size: bytes.len() as u32,
                kind: SymbolKind::Object,
            });
            data_bytes.extend_from_slice(bytes);
            off += bytes.len() as u32;
            let pad = align(off, 4) - off;
            data_bytes.extend(std::iter::repeat_n(0, pad as usize));
            off += pad;
        }
        let data_size = off;

        let bss_base = align(data_base + data_size, 0x10);
        let mut off = 0;
        for (name, size) in &self.bss {
            let addr = bss_base + off;
            if globals.insert(name.clone(), addr).is_some() {
                return Err(Error::DuplicateLabel(name.clone()));
            }
            object_syms.push(Symbol {
                name: name.clone(),
                addr,
                size: *size,
                kind: SymbolKind::Object,
            });
            off += align(*size, 4);
        }
        let bss_size = off;

        // A fixup target may be a function, an import stub, or a data object.
        let resolve_global = |name: &str| -> Result<u32> {
            func_addrs
                .get(name)
                .or_else(|| stub_addrs.get(name))
                .or_else(|| globals.get(name))
                .copied()
                .ok_or_else(|| Error::UndefinedLabel(name.to_owned()))
        };

        // Pass 2: patch instruction words.
        let mut text = Vec::with_capacity(text_size as usize);
        let mut func_syms = Vec::with_capacity(self.funcs.len());
        for (name, asm) in &self.funcs {
            let base = func_addrs[name];
            for (idx, item) in asm.items().iter().enumerate() {
                let ins_addr = base + idx as u32 * INS_SIZE;
                let word = match &item.fixup {
                    Fixup::None => item.word,
                    Fixup::Rel16(label) => {
                        let target = *asm
                            .labels()
                            .get(label)
                            .ok_or_else(|| Error::UndefinedLabel(label.clone()))?;
                        let off = target as i64 - (idx as i64 + 1);
                        if off < i16::MIN as i64 || off > i16::MAX as i64 {
                            return Err(Error::BranchOutOfRange {
                                label: label.clone(),
                                distance: off * INS_SIZE as i64,
                            });
                        }
                        (item.word & !0xffff) | (off as u16 as u32)
                    }
                    Fixup::Rel26(symbol) => {
                        let target = resolve_global(symbol)?;
                        let off = (target as i64 - (ins_addr as i64 + 4)) / INS_SIZE as i64;
                        if !(-(1 << 25)..(1 << 25)).contains(&off) {
                            return Err(Error::BranchOutOfRange {
                                label: symbol.clone(),
                                distance: off * INS_SIZE as i64,
                            });
                        }
                        (item.word & !0x03ff_ffff) | ((off as u32) & 0x03ff_ffff)
                    }
                    Fixup::AbsHi(symbol) => {
                        let target = resolve_global(symbol)?;
                        (item.word & !0xffff) | (target >> 16)
                    }
                    Fixup::AbsLo(symbol) => {
                        let target = resolve_global(symbol)?;
                        (item.word & !0xffff) | (target & 0xffff)
                    }
                };
                text.extend_from_slice(&word.to_le_bytes());
            }
            func_syms.push(Symbol {
                name: name.clone(),
                addr: base,
                size: asm.len_words() * INS_SIZE,
                kind: SymbolKind::Function,
            });
        }

        // Stub bodies: `ret; nop` in the target dialect.
        let mut plt = Vec::with_capacity(plt_size as usize);
        let ret_word = match self.arch {
            Arch::Arm32e => crate::arm::ArmIns::Bx { rm: Reg::LR }.encode().expect("ret encodes"),
            Arch::Mips32e => {
                crate::mips::MipsIns::Jr { rs: Reg::RA }.encode().expect("ret encodes")
            }
        };
        for _ in &self.imports {
            plt.extend_from_slice(&ret_word.to_le_bytes());
            plt.extend_from_slice(&0u32.to_le_bytes());
        }

        let entry = match &self.entry {
            Some(name) => resolve_global(name)?,
            None => self.funcs.first().map(|(n, _)| func_addrs[n]).unwrap_or(TEXT_BASE),
        };

        let mut sections = vec![Section {
            name: ".text".into(),
            kind: SectionKind::Text,
            addr: TEXT_BASE,
            size: text_size,
            data: text,
        }];
        if plt_size > 0 {
            sections.push(Section {
                name: ".plt".into(),
                kind: SectionKind::Plt,
                addr: plt_base,
                size: plt_size,
                data: plt,
            });
        }
        if rodata_size > 0 {
            sections.push(Section {
                name: ".rodata".into(),
                kind: SectionKind::RoData,
                addr: rodata_base,
                size: rodata_size,
                data: rodata_bytes,
            });
        }
        if data_size > 0 {
            sections.push(Section {
                name: ".data".into(),
                kind: SectionKind::Data,
                addr: data_base,
                size: data_size,
                data: data_bytes,
            });
        }
        if bss_size > 0 {
            sections.push(Section {
                name: ".bss".into(),
                kind: SectionKind::Bss,
                addr: bss_base,
                size: bss_size,
                data: vec![],
            });
        }

        let mut symbols = func_syms;
        symbols.extend(object_syms);
        let imports = self
            .imports
            .iter()
            .map(|name| Import { name: name.clone(), stub_addr: stub_addrs[name] })
            .collect();

        Ok(Binary::new(self.arch, entry, sections, symbols, imports))
    }
}

fn align(v: u32, to: u32) -> u32 {
    (v + to - 1) & !(to - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arm::{ArmIns, Cond};
    use crate::mips::MipsIns;

    fn arm_ret_fn() -> Assembler {
        let mut a = Assembler::new(Arch::Arm32e);
        a.ret();
        a
    }

    #[test]
    fn minimal_link_produces_text_and_symbols() {
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("main", arm_ret_fn());
        let bin = b.link().unwrap();
        assert_eq!(bin.entry, TEXT_BASE);
        let main = bin.function("main").unwrap();
        assert_eq!((main.addr, main.size), (TEXT_BASE, 4));
        let text = bin.section(SectionKind::Text).unwrap();
        assert_eq!(text.size, 4);
    }

    #[test]
    fn call_to_import_resolves_to_stub() {
        let mut a = Assembler::new(Arch::Arm32e);
        a.call("strcpy");
        a.ret();
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("f", a);
        b.add_import("strcpy");
        let bin = b.link().unwrap();
        let stub = bin.imports[0].stub_addr;
        // Decode the patched BL and compute its destination.
        let word = bin.read_u32(TEXT_BASE).unwrap();
        let ins = ArmIns::decode(word, TEXT_BASE).unwrap();
        let ArmIns::Bl { off } = ins else { panic!("expected BL, got {ins}") };
        let dest = (TEXT_BASE as i64 + 4 + off as i64 * 4) as u32;
        assert_eq!(dest, stub);
        // The stub body is a return.
        let stub_word = bin.read_u32(stub).unwrap();
        assert_eq!(ArmIns::decode(stub_word, stub).unwrap(), ArmIns::Bx { rm: Reg::LR });
    }

    #[test]
    fn call_between_functions_resolves() {
        let mut f = Assembler::new(Arch::Mips32e);
        f.call("g");
        f.ret();
        let mut g = Assembler::new(Arch::Mips32e);
        g.ret();
        let mut b = BinaryBuilder::new(Arch::Mips32e);
        b.add_function("f", f);
        b.add_function("g", g);
        let bin = b.link().unwrap();
        let g_addr = bin.function("g").unwrap().addr;
        let word = bin.read_u32(TEXT_BASE).unwrap();
        let MipsIns::Jal { off } = MipsIns::decode(word, 0).unwrap() else { panic!() };
        assert_eq!((TEXT_BASE as i64 + 4 + off as i64 * 4) as u32, g_addr);
    }

    #[test]
    fn local_branch_resolves_backward_and_forward() {
        let mut a = Assembler::new(Arch::Arm32e);
        a.label("top");
        a.arm(ArmIns::CmpI { rn: Reg(0), imm: 0 });
        a.arm_b(Cond::Eq, "out"); // forward
        a.arm(ArmIns::SubI { rd: Reg(0), rn: Reg(0), imm: 1 });
        a.jump("top"); // backward
        a.label("out");
        a.ret();
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("loopy", a);
        let bin = b.link().unwrap();
        // beq at word 1 → target word 4: off = 4 - 2 = 2.
        let w = bin.read_u32(TEXT_BASE + 4).unwrap();
        assert_eq!(ArmIns::decode(w, 0).unwrap(), ArmIns::B { cond: Cond::Eq, off: 2 });
        // jump at word 3 → target word 0: off = 0 - 4 = -4.
        let w = bin.read_u32(TEXT_BASE + 12).unwrap();
        assert_eq!(ArmIns::decode(w, 0).unwrap(), ArmIns::B { cond: Cond::Al, off: -4 });
    }

    #[test]
    fn load_addr_materialises_rodata_address() {
        let mut a = Assembler::new(Arch::Mips32e);
        a.load_addr(Reg(4), "greeting");
        a.ret();
        let mut b = BinaryBuilder::new(Arch::Mips32e);
        b.add_function("f", a);
        b.add_cstring("greeting", "hello");
        let bin = b.link().unwrap();
        let obj = bin.symbols.iter().find(|s| s.name == "greeting").unwrap();
        let hi = bin.read_u32(TEXT_BASE).unwrap();
        let lo = bin.read_u32(TEXT_BASE + 4).unwrap();
        let MipsIns::Lui { imm: hi_imm, .. } = MipsIns::decode(hi, 0).unwrap() else { panic!() };
        let MipsIns::Ori { imm: lo_imm, .. } = MipsIns::decode(lo, 0).unwrap() else { panic!() };
        assert_eq!(((hi_imm as u32) << 16) | lo_imm as u32, obj.addr);
        assert_eq!(bin.cstr_at(obj.addr).as_deref(), Some("hello"));
    }

    #[test]
    fn function_pointer_into_data_structure() {
        // Storing a function address into a struct field — the pattern
        // behind indirect calls — must resolve to the callee's address.
        let mut f = Assembler::new(Arch::Arm32e);
        f.load_addr(Reg(1), "handler");
        f.arm(ArmIns::Str { rt: Reg(1), rn: Reg(0), off: 8 });
        f.ret();
        let mut h = Assembler::new(Arch::Arm32e);
        h.ret();
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("install", f);
        b.add_function("handler", h);
        let bin = b.link().unwrap();
        let handler = bin.function("handler").unwrap().addr;
        let lo = bin.read_u32(TEXT_BASE).unwrap();
        let hi = bin.read_u32(TEXT_BASE + 4).unwrap();
        let ArmIns::MovI { imm: lo_imm, .. } = ArmIns::decode(lo, 0).unwrap() else { panic!() };
        let ArmIns::MovT { imm: hi_imm, .. } = ArmIns::decode(hi, 0).unwrap() else { panic!() };
        assert_eq!(((hi_imm as u32) << 16) | lo_imm as u32, handler);
    }

    #[test]
    fn undefined_symbols_and_labels_error() {
        let mut a = Assembler::new(Arch::Arm32e);
        a.call("nowhere");
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("f", a);
        assert_eq!(b.link().unwrap_err(), Error::UndefinedLabel("nowhere".into()));

        let mut a = Assembler::new(Arch::Arm32e);
        a.arm_b(Cond::Ne, "missing");
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("f", a);
        assert_eq!(b.link().unwrap_err(), Error::UndefinedLabel("missing".into()));
    }

    #[test]
    fn duplicate_globals_error() {
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("f", arm_ret_fn());
        b.add_function("f", arm_ret_fn());
        assert_eq!(b.link().unwrap_err(), Error::DuplicateLabel("f".into()));

        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("strcpy", arm_ret_fn());
        b.add_import("strcpy");
        assert_eq!(b.link().unwrap_err(), Error::DuplicateLabel("strcpy".into()));
    }

    #[test]
    fn sections_are_disjoint_and_ordered() {
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("f", arm_ret_fn());
        b.add_import("recv");
        b.add_cstring("s", "x");
        b.add_data("d", vec![1, 2, 3, 4]);
        b.add_bss("g_state", 32);
        let bin = b.link().unwrap();
        let mut prev_end = 0;
        for s in &bin.sections {
            assert!(s.addr >= prev_end, "{} overlaps previous section", s.name);
            prev_end = s.addr + s.size;
        }
        assert_eq!(bin.sections.len(), 5);
    }

    #[test]
    fn entry_defaults_to_first_function_and_is_settable() {
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("a", arm_ret_fn());
        b.add_function("b", arm_ret_fn());
        assert_eq!(b.link().unwrap().entry, TEXT_BASE);
        b.set_entry("b");
        let bin = b.link().unwrap();
        assert_eq!(bin.entry, bin.function("b").unwrap().addr);
    }

    #[test]
    fn linked_binary_roundtrips_through_fbf() {
        let mut a = Assembler::new(Arch::Mips32e);
        a.call("recv");
        a.ret();
        let mut b = BinaryBuilder::new(Arch::Mips32e);
        b.add_function("main", a);
        b.add_import("recv");
        b.add_cstring("fmt", "%s");
        let bin = b.link().unwrap();
        assert_eq!(Binary::from_bytes(&bin.to_bytes()).unwrap(), bin);
    }
}

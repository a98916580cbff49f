//! A two-pass assembler with labels and link-time fixups.
//!
//! An [`Assembler`] accumulates encoded instruction words plus *fixups* —
//! references to labels whose addresses are only known once the
//! [`BinaryBuilder`](crate::link::BinaryBuilder) lays the program out.
//! Local labels (branch targets) are resolved within the function; calls and
//! absolute-address loads are resolved against global symbols (functions,
//! imports, data objects) by the linker.
//!
//! Both dialects share the fixup machinery because they share the immediate
//! field layout (`imm16` in bits `[15:0]`, `imm26` in `[25:0]`).

use crate::arm::{ArmIns, Cond};
use crate::mips::MipsIns;
use crate::{Arch, Reg};
use std::collections::HashMap;

/// How a pending instruction word must be patched once addresses are known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fixup {
    /// No patching required.
    None,
    /// Patch bits `[15:0]` with a signed word-offset to a *local* label,
    /// relative to the next instruction (conditional branches, jumps).
    Rel16(String),
    /// Patch bits `[25:0]` with a signed word-offset to a *global* symbol
    /// (calls).
    Rel26(String),
    /// Patch bits `[15:0]` with the high half of a global symbol's address.
    AbsHi(String),
    /// Patch bits `[15:0]` with the low half of a global symbol's address.
    AbsLo(String),
}

/// One assembled item: an instruction word plus its pending fixup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmItem {
    /// The (possibly partially encoded) instruction word.
    pub word: u32,
    /// The patch to apply at link time.
    pub fixup: Fixup,
}

/// An assembler for one function body.
///
/// # Examples
///
/// ```
/// use dtaint_fwbin::asm::Assembler;
/// use dtaint_fwbin::arm::{ArmIns, Cond};
/// use dtaint_fwbin::{Arch, Reg};
///
/// let mut a = Assembler::new(Arch::Arm32e);
/// a.arm(ArmIns::CmpI { rn: Reg(0), imm: 0 });
/// a.arm_b(Cond::Eq, "done");
/// a.arm(ArmIns::AddI { rd: Reg(0), rn: Reg(0), imm: 1 });
/// a.label("done");
/// a.ret();
/// assert_eq!(a.len_words(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Assembler {
    arch: Arch,
    items: Vec<AsmItem>,
    labels: HashMap<String, u32>,
}

impl Assembler {
    /// Creates an empty assembler for `arch`.
    pub fn new(arch: Arch) -> Self {
        Assembler { arch, items: Vec::new(), labels: HashMap::new() }
    }

    /// The target architecture.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Number of instruction words emitted so far.
    pub fn len_words(&self) -> u32 {
        self.items.len() as u32
    }

    /// The emitted items (word + fixup), in program order.
    pub fn items(&self) -> &[AsmItem] {
        &self.items
    }

    /// The local labels defined so far, as `(name, word index)` pairs.
    pub fn labels(&self) -> &HashMap<String, u32> {
        &self.labels
    }

    /// Defines a local label at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined — a codegen bug.
    pub fn label(&mut self, name: &str) {
        let prev = self.labels.insert(name.to_owned(), self.len_words());
        assert!(prev.is_none(), "duplicate local label `{name}`");
    }

    fn push(&mut self, word: u32, fixup: Fixup) {
        self.items.push(AsmItem { word, fixup });
    }

    /// Emits an `arm32e` instruction.
    ///
    /// # Panics
    ///
    /// Panics if the assembler targets another architecture or the
    /// instruction fails to encode (both are codegen bugs).
    pub fn arm(&mut self, ins: ArmIns) {
        assert_eq!(self.arch, Arch::Arm32e, "arm instruction on {} assembler", self.arch);
        let word = ins.encode().unwrap_or_else(|e| panic!("encode {ins}: {e}"));
        self.push(word, Fixup::None);
    }

    /// Emits a `mips32e` instruction.
    ///
    /// # Panics
    ///
    /// Panics if the assembler targets another architecture or the
    /// instruction fails to encode (both are codegen bugs).
    pub fn mips(&mut self, ins: MipsIns) {
        assert_eq!(self.arch, Arch::Mips32e, "mips instruction on {} assembler", self.arch);
        let word = ins.encode().unwrap_or_else(|e| panic!("encode {ins}: {e}"));
        self.push(word, Fixup::None);
    }

    /// Emits a conditional `arm32e` branch to a local label.
    ///
    /// # Panics
    ///
    /// Panics on a non-ARM assembler.
    pub fn arm_b(&mut self, cond: Cond, label: &str) {
        assert_eq!(self.arch, Arch::Arm32e);
        let word = ArmIns::B { cond, off: 0 }.encode().expect("B encodes");
        self.push(word, Fixup::Rel16(label.to_owned()));
    }

    /// Emits `beq rs, rt, label`.
    ///
    /// # Panics
    ///
    /// Panics on a non-MIPS assembler.
    pub fn mips_beq(&mut self, rs: Reg, rt: Reg, label: &str) {
        self.mips_branch(MipsIns::Beq { rs, rt, off: 0 }, label);
    }

    /// Emits `bne rs, rt, label`.
    ///
    /// # Panics
    ///
    /// Panics on a non-MIPS assembler.
    pub fn mips_bne(&mut self, rs: Reg, rt: Reg, label: &str) {
        self.mips_branch(MipsIns::Bne { rs, rt, off: 0 }, label);
    }

    /// Emits `bgtz rs, label`.
    ///
    /// # Panics
    ///
    /// Panics on a non-MIPS assembler.
    pub fn mips_bgtz(&mut self, rs: Reg, label: &str) {
        self.mips_branch(MipsIns::Bgtz { rs, off: 0 }, label);
    }

    fn mips_branch(&mut self, proto: MipsIns, label: &str) {
        assert_eq!(self.arch, Arch::Mips32e);
        let word = proto.encode().expect("branch encodes");
        self.push(word, Fixup::Rel16(label.to_owned()));
    }

    /// Emits an unconditional jump to a local label (`B`/`J`).
    pub fn jump(&mut self, label: &str) {
        match self.arch {
            Arch::Arm32e => {
                let word = ArmIns::B { cond: Cond::Al, off: 0 }.encode().expect("B encodes");
                self.push(word, Fixup::Rel16(label.to_owned()));
            }
            Arch::Mips32e => {
                // J uses a 26-bit field but local jumps resolve like Rel16
                // targets; keep the 16-bit patch so both dialects share the
                // resolver (functions never exceed ±32k words).
                let word =
                    MipsIns::Beq { rs: Reg(0), rt: Reg(0), off: 0 }.encode().expect("beq encodes");
                self.push(word, Fixup::Rel16(label.to_owned()));
            }
        }
    }

    /// Emits a call to a global symbol (`BL`/`JAL`), patched by the linker.
    pub fn call(&mut self, symbol: &str) {
        let word = match self.arch {
            Arch::Arm32e => ArmIns::Bl { off: 0 }.encode().expect("BL encodes"),
            Arch::Mips32e => MipsIns::Jal { off: 0 }.encode().expect("JAL encodes"),
        };
        self.push(word, Fixup::Rel26(symbol.to_owned()));
    }

    /// Emits an indirect call through a register (`BLX rm`/`JALR rs`).
    pub fn call_reg(&mut self, r: Reg) {
        match self.arch {
            Arch::Arm32e => self.arm(ArmIns::Blx { rm: r }),
            Arch::Mips32e => self.mips(MipsIns::Jalr { rs: r }),
        }
    }

    /// Emits the function return (`BX LR`/`JR $ra`).
    pub fn ret(&mut self) {
        match self.arch {
            Arch::Arm32e => self.arm(ArmIns::Bx { rm: Reg::LR }),
            Arch::Mips32e => self.mips(MipsIns::Jr { rs: Reg::RA }),
        }
    }

    /// Materialises the absolute address of a global symbol into `rd`
    /// (two instructions: `MOVI`+`MOVT` or `LUI`+`ORI`).
    pub fn load_addr(&mut self, rd: Reg, symbol: &str) {
        match self.arch {
            Arch::Arm32e => {
                let lo = ArmIns::MovI { rd, imm: 0 }.encode().expect("MOVI encodes");
                let hi = ArmIns::MovT { rd, imm: 0 }.encode().expect("MOVT encodes");
                self.push(lo, Fixup::AbsLo(symbol.to_owned()));
                self.push(hi, Fixup::AbsHi(symbol.to_owned()));
            }
            Arch::Mips32e => {
                let hi = MipsIns::Lui { rt: rd, imm: 0 }.encode().expect("LUI encodes");
                let lo = MipsIns::Ori { rt: rd, rs: rd, imm: 0 }.encode().expect("ORI encodes");
                self.push(hi, Fixup::AbsHi(symbol.to_owned()));
                self.push(lo, Fixup::AbsLo(symbol.to_owned()));
            }
        }
    }

    /// Loads a 32-bit constant into `rd` (two instructions).
    pub fn load_const(&mut self, rd: Reg, value: u32) {
        match self.arch {
            Arch::Arm32e => {
                self.arm(ArmIns::MovI { rd, imm: (value & 0xffff) as u16 });
                if value >> 16 != 0 {
                    self.arm(ArmIns::MovT { rd, imm: (value >> 16) as u16 });
                }
            }
            Arch::Mips32e => {
                if value >> 16 != 0 {
                    self.mips(MipsIns::Lui { rt: rd, imm: (value >> 16) as u16 });
                    if value & 0xffff != 0 {
                        self.mips(MipsIns::Ori { rt: rd, rs: rd, imm: (value & 0xffff) as u16 });
                    }
                } else {
                    self.mips(MipsIns::Ori { rt: rd, rs: Reg::ZERO, imm: (value & 0xffff) as u16 });
                }
            }
        }
    }

    /// Moves register `src` into `dst` in the dialect's idiom.
    pub fn mov(&mut self, dst: Reg, src: Reg) {
        match self.arch {
            Arch::Arm32e => self.arm(ArmIns::MovR { rd: dst, rm: src }),
            Arch::Mips32e => self.mips(MipsIns::Or { rd: dst, rs: src, rt: Reg::ZERO }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_labels_record_word_positions() {
        let mut a = Assembler::new(Arch::Arm32e);
        a.label("start");
        a.arm(ArmIns::Nop);
        a.arm(ArmIns::Nop);
        a.label("mid");
        a.ret();
        assert_eq!(a.labels()["start"], 0);
        assert_eq!(a.labels()["mid"], 2);
        assert_eq!(a.len_words(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate local label")]
    fn duplicate_label_panics() {
        let mut a = Assembler::new(Arch::Mips32e);
        a.label("x");
        a.label("x");
    }

    #[test]
    #[should_panic(expected = "arm instruction on mips32e")]
    fn arch_mismatch_panics() {
        let mut a = Assembler::new(Arch::Mips32e);
        a.arm(ArmIns::Nop);
    }

    #[test]
    fn call_emits_rel26_fixup() {
        let mut a = Assembler::new(Arch::Arm32e);
        a.call("memcpy");
        assert_eq!(a.items()[0].fixup, Fixup::Rel26("memcpy".into()));
    }

    #[test]
    fn load_addr_emits_hi_lo_pair() {
        for arch in [Arch::Arm32e, Arch::Mips32e] {
            let mut a = Assembler::new(arch);
            a.load_addr(arch.scratch_regs()[0], "table");
            let fixups: Vec<_> = a.items().iter().map(|i| i.fixup.clone()).collect();
            assert_eq!(fixups.len(), 2);
            assert!(fixups.contains(&Fixup::AbsHi("table".into())));
            assert!(fixups.contains(&Fixup::AbsLo("table".into())));
        }
    }

    #[test]
    fn load_const_small_values_are_single_instruction() {
        let mut a = Assembler::new(Arch::Arm32e);
        a.load_const(Reg(0), 0x40);
        assert_eq!(a.len_words(), 1);
        let mut a = Assembler::new(Arch::Mips32e);
        a.load_const(Reg(8), 0x40);
        assert_eq!(a.len_words(), 1);
    }

    #[test]
    fn load_const_large_values_use_two_instructions() {
        for arch in [Arch::Arm32e, Arch::Mips32e] {
            let mut a = Assembler::new(arch);
            a.load_const(arch.scratch_regs()[0], 0x0012_0034);
            assert_eq!(a.len_words(), 2, "{arch}");
        }
    }

    #[test]
    fn mips_mov_is_or_with_zero() {
        let mut a = Assembler::new(Arch::Mips32e);
        a.mov(Reg(4), Reg(2));
        let ins = MipsIns::decode(a.items()[0].word, 0).unwrap();
        assert_eq!(ins, MipsIns::Or { rd: Reg(4), rs: Reg(2), rt: Reg::ZERO });
    }

    #[test]
    fn ret_is_arch_appropriate() {
        let mut a = Assembler::new(Arch::Arm32e);
        a.ret();
        assert_eq!(ArmIns::decode(a.items()[0].word, 0).unwrap(), ArmIns::Bx { rm: Reg::LR });
        let mut m = Assembler::new(Arch::Mips32e);
        m.ret();
        assert_eq!(MipsIns::decode(m.items()[0].word, 0).unwrap(), MipsIns::Jr { rs: Reg::RA });
    }
}

//! Flat memory for the concrete emulator.
//!
//! Sections of the loaded binary are mapped at their link addresses; a
//! stack and a bump-allocated heap are added. All accesses are
//! bounds-checked — an out-of-region access is a [`Fault`], which is how
//! control-flow hijacks surface (a smashed return address sends the CPU
//! to unmapped space).

use crate::Fault;
use dtaint_fwbin::{Binary, SectionKind};

/// Base address of the emulated stack (grows down).
pub const STACK_TOP: u32 = 0x7fff_0000;
/// Stack size in bytes.
pub const STACK_SIZE: u32 = 1 << 20;
/// Base address of the emulated heap.
pub const HEAP_BASE: u32 = 0x5000_0000;
/// Heap size in bytes.
pub const HEAP_SIZE: u32 = 4 << 20;

struct Region {
    name: &'static str,
    base: u32,
    data: Vec<u8>,
    writable: bool,
}

/// The emulated address space.
pub struct Mem {
    regions: Vec<Region>,
    heap_cursor: u32,
}

impl Mem {
    /// Maps a binary's sections plus fresh stack and heap regions.
    pub fn new(bin: &Binary) -> Mem {
        let mut regions = Vec::new();
        for s in &bin.sections {
            let mut data = s.data.clone();
            data.resize(s.size as usize, 0);
            let writable = matches!(s.kind, SectionKind::Data | SectionKind::Bss);
            let name: &'static str = match s.kind {
                SectionKind::Text => "text",
                SectionKind::Plt => "plt",
                SectionKind::RoData => "rodata",
                SectionKind::Data => "data",
                SectionKind::Bss => "bss",
            };
            regions.push(Region { name, base: s.addr, data, writable });
        }
        regions.push(Region {
            name: "stack",
            base: STACK_TOP - STACK_SIZE,
            data: vec![0; STACK_SIZE as usize],
            writable: true,
        });
        regions.push(Region {
            name: "heap",
            base: HEAP_BASE,
            data: vec![0; HEAP_SIZE as usize],
            writable: true,
        });
        Mem { regions, heap_cursor: HEAP_BASE }
    }

    fn region(&self, addr: u32) -> Option<usize> {
        self.regions.iter().position(|r| {
            addr >= r.base && (addr - r.base) as usize <= r.data.len().saturating_sub(1)
        })
    }

    /// Allocates `size` bytes on the heap (8-byte aligned). Returns the
    /// address, or `None` when the heap is exhausted.
    pub fn alloc(&mut self, size: u32) -> Option<u32> {
        let aligned = (size + 7) & !7;
        if self.heap_cursor + aligned > HEAP_BASE + HEAP_SIZE {
            return None;
        }
        let p = self.heap_cursor;
        self.heap_cursor += aligned.max(8);
        Some(p)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`Fault::UnmappedLoad`] outside every region.
    pub fn load8(&self, addr: u32) -> Result<u8, Fault> {
        let i = self.region(addr).ok_or(Fault::UnmappedLoad { addr })?;
        let r = &self.regions[i];
        Ok(r.data[(addr - r.base) as usize])
    }

    /// Reads a little-endian 16-bit halfword.
    ///
    /// # Errors
    ///
    /// [`Fault::UnmappedLoad`] when any byte is outside mapped space.
    pub fn load16(&self, addr: u32) -> Result<u16, Fault> {
        let lo = self.load8(addr)? as u16;
        let hi = self.load8(addr.wrapping_add(1))? as u16;
        Ok(lo | (hi << 8))
    }

    /// Writes a little-endian 16-bit halfword.
    ///
    /// # Errors
    ///
    /// As [`Mem::store8`].
    pub fn store16(&mut self, addr: u32, v: u16) -> Result<(), Fault> {
        self.store8(addr, v as u8)?;
        self.store8(addr.wrapping_add(1), (v >> 8) as u8)
    }

    /// Reads a little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// [`Fault::UnmappedLoad`] when any byte is outside mapped space.
    pub fn load32(&self, addr: u32) -> Result<u32, Fault> {
        let mut b = [0u8; 4];
        for (k, out) in b.iter_mut().enumerate() {
            *out = self.load8(addr.wrapping_add(k as u32))?;
        }
        Ok(u32::from_le_bytes(b))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`Fault::UnmappedStore`] outside every region,
    /// [`Fault::WriteToReadOnly`] into text/rodata.
    pub fn store8(&mut self, addr: u32, v: u8) -> Result<(), Fault> {
        let i = self.region(addr).ok_or(Fault::UnmappedStore { addr })?;
        let r = &mut self.regions[i];
        if !r.writable {
            return Err(Fault::WriteToReadOnly { addr, region: r.name });
        }
        r.data[(addr - r.base) as usize] = v;
        Ok(())
    }

    /// Writes a little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// As [`Mem::store8`].
    pub fn store32(&mut self, addr: u32, v: u32) -> Result<(), Fault> {
        for (k, byte) in v.to_le_bytes().into_iter().enumerate() {
            self.store8(addr.wrapping_add(k as u32), byte)?;
        }
        Ok(())
    }

    /// Copies a byte slice into memory.
    ///
    /// # Errors
    ///
    /// As [`Mem::store8`]; partial writes are possible on fault.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Fault> {
        for (k, &b) in bytes.iter().enumerate() {
            self.store8(addr.wrapping_add(k as u32), b)?;
        }
        Ok(())
    }

    /// Reads a NUL-terminated string (capped at 64 KiB).
    ///
    /// # Errors
    ///
    /// [`Fault::UnmappedLoad`] when the string runs off mapped space.
    pub fn read_cstr(&self, addr: u32) -> Result<Vec<u8>, Fault> {
        let mut out = Vec::new();
        for k in 0..65536u32 {
            let b = self.load8(addr.wrapping_add(k))?;
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtaint_fwbin::asm::Assembler;
    use dtaint_fwbin::link::BinaryBuilder;
    use dtaint_fwbin::Arch;

    fn mem() -> Mem {
        let mut a = Assembler::new(Arch::Arm32e);
        a.ret();
        let mut b = BinaryBuilder::new(Arch::Arm32e);
        b.add_function("f", a);
        b.add_cstring("s", "hello");
        b.add_bss("g", 32);
        Mem::new(&b.link().unwrap())
    }

    #[test]
    fn roundtrip_in_writable_regions() {
        let mut m = mem();
        let sp = STACK_TOP - 64;
        m.store32(sp, 0xdead_beef).unwrap();
        assert_eq!(m.load32(sp).unwrap(), 0xdead_beef);
        m.store8(sp, 0x42).unwrap();
        assert_eq!(m.load8(sp).unwrap(), 0x42);
    }

    #[test]
    fn text_is_read_only() {
        let mut m = mem();
        assert!(matches!(
            m.store8(dtaint_fwbin::link::TEXT_BASE, 0),
            Err(Fault::WriteToReadOnly { .. })
        ));
    }

    #[test]
    fn unmapped_accesses_fault() {
        let m = mem();
        assert!(matches!(m.load32(0x4141_4141), Err(Fault::UnmappedLoad { .. })));
        let mut m = mem();
        assert!(matches!(m.store32(0x1, 0), Err(Fault::UnmappedStore { .. })));
    }

    #[test]
    fn cstr_reads_from_rodata() {
        let m = mem();
        // Find the rodata region by scanning for 'h'.
        let mut found = false;
        for addr in 0x10000..0x12000u32 {
            if m.load8(addr) == Ok(b'h') && m.read_cstr(addr) == Ok(b"hello".to_vec()) {
                found = true;
                break;
            }
        }
        assert!(found);
    }

    #[test]
    fn heap_allocations_are_disjoint() {
        let mut m = mem();
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert!(b >= a + 100);
        m.store32(a, 1).unwrap();
        m.store32(b, 2).unwrap();
        assert_eq!(m.load32(a).unwrap(), 1);
    }

    #[test]
    fn bss_reads_back_zero_and_is_writable() {
        let mut m = mem();
        // bss is the last binary section; find any writable non-stack.
        for addr in 0x10000..0x12000u32 {
            if m.load8(addr).is_ok() && m.store8(addr, 7).is_ok() {
                assert_eq!(m.load8(addr).unwrap(), 7);
                return;
            }
        }
        panic!("no writable data region found");
    }
}

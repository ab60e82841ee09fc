//! Minimal ELF64 writer.

use crate::types::*;
use crate::{Binary, Segment, SegmentFlags};
use std::collections::BTreeMap;

struct SectionSpec {
    name: String,
    vaddr: u64,
    bytes: Vec<u8>,
    flags: SegmentFlags,
}

/// Builds a static x86-64 ELF executable (or shared object) from raw
/// section contents.
///
/// Emitted files parse back with [`Binary::parse`]; section file
/// offsets are page-congruent with their virtual addresses so the
/// images are also loadable by a real OS loader.
///
/// ```
/// use hgl_elf::{Builder, Binary, SegmentFlags};
///
/// let elf = Builder::new()
///     .entry(0x401000)
///     .section(".text", 0x401000, vec![0xc3], SegmentFlags::RX)
///     .build();
/// let bin = Binary::parse(&elf)?;
/// assert_eq!(bin.entry, 0x401000);
/// assert!(bin.is_code(0x401000));
/// # Ok::<(), hgl_elf::ParseError>(())
/// ```
#[derive(Default)]
pub struct Builder {
    entry: u64,
    sections: Vec<SectionSpec>,
    externals: BTreeMap<u64, String>,
    symbols: BTreeMap<u64, String>,
    /// Extra symtab entries at already-named addresses (aliases).
    aliases: Vec<(u64, String)>,
    shared_object: bool,
}

impl Builder {
    /// A new, empty builder.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Set the entry point.
    pub fn entry(mut self, addr: u64) -> Builder {
        self.entry = addr;
        self
    }

    /// Emit the file as `ET_DYN` (shared object) instead of `ET_EXEC`.
    pub fn shared_object(mut self) -> Builder {
        self.shared_object = true;
        self
    }

    /// Add an allocatable section mapped at `vaddr`.
    ///
    /// # Panics
    ///
    /// Panics if the section overlaps an existing one.
    pub fn section(mut self, name: &str, vaddr: u64, bytes: Vec<u8>, flags: SegmentFlags) -> Builder {
        let end = vaddr + bytes.len() as u64;
        for s in &self.sections {
            let s_end = s.vaddr + s.bytes.len() as u64;
            assert!(
                end <= s.vaddr || vaddr >= s_end,
                "section {name} [{vaddr:#x}, {end:#x}) overlaps {}",
                s.name
            );
        }
        self.sections.push(SectionSpec { name: name.to_string(), vaddr, bytes, flags });
        self
    }

    /// Record an external-function stub (written to `.extmap`).
    pub fn external(mut self, addr: u64, name: &str) -> Builder {
        self.externals.insert(addr, name.to_string());
        self
    }

    /// Record a defined function symbol (written to `.symtab`).
    pub fn symbol(mut self, addr: u64, name: &str) -> Builder {
        self.symbols.insert(addr, name.to_string());
        self
    }

    /// Record an *additional* symtab entry for an address (ELF permits
    /// any number of names per address: weak aliases, identical-code
    /// folding). The loaded [`Binary`] keeps one name per address —
    /// the lexicographically smallest — so aliases exist to exercise
    /// exactly that collapse.
    pub fn symbol_alias(mut self, addr: u64, name: &str) -> Builder {
        self.aliases.push((addr, name.to_string()));
        self
    }

    /// Produce the loaded view directly, without serialising to ELF.
    pub fn to_binary(&self) -> Binary {
        let mut segments: Vec<Segment> = self
            .sections
            .iter()
            .map(|s| Segment { vaddr: s.vaddr, bytes: s.bytes.clone(), flags: s.flags })
            .collect();
        segments.sort_by_key(|s| s.vaddr);
        // Collapse aliases exactly as the ELF reader does: smallest
        // name per address wins.
        let mut symbols = self.symbols.clone();
        for (addr, name) in &self.aliases {
            match symbols.get(addr) {
                Some(existing) if existing <= name => {}
                _ => {
                    symbols.insert(*addr, name.clone());
                }
            }
        }
        Binary { entry: self.entry, segments, externals: self.externals.clone(), symbols }
    }

    /// Serialise to ELF64 bytes.
    pub fn build(&self) -> Vec<u8> {
        let mut sections = self.sections.iter().collect::<Vec<_>>();
        sections.sort_by_key(|s| s.vaddr);
        let nload = sections.len() as u64;

        // ---- plan the file layout ----
        let phdrs_off = EHDR_SIZE;
        let mut cursor = phdrs_off + nload * PHDR_SIZE;
        // Loadable sections, page-congruent offsets.
        let mut load_offsets = Vec::new();
        for s in &sections {
            let want = s.vaddr % PAGE;
            if cursor % PAGE != want {
                cursor += (want + PAGE - cursor % PAGE) % PAGE;
            }
            load_offsets.push(cursor);
            cursor += s.bytes.len() as u64;
        }
        // Non-loadable payloads.
        let extmap = encode_extmap(&self.externals);
        let extmap_off = cursor;
        cursor += extmap.len() as u64;

        let (symtab, strtab) = encode_symtab(&self.symbols, &self.aliases);
        let symtab_off = cursor;
        cursor += symtab.len() as u64;
        let strtab_off = cursor;
        cursor += strtab.len() as u64;

        // Section-header string table.
        let mut shstrtab = vec![0u8];
        let name_off = |name: &str, shstrtab: &mut Vec<u8>| -> u32 {
            let off = shstrtab.len() as u32;
            shstrtab.extend_from_slice(name.as_bytes());
            shstrtab.push(0);
            off
        };
        // Section table: null + loads + .extmap + .symtab + .strtab + .shstrtab
        struct Shdr {
            name: u32,
            sh_type: u32,
            flags: u64,
            addr: u64,
            off: u64,
            size: u64,
            link: u32,
            entsize: u64,
        }
        let mut shdrs = vec![Shdr { name: 0, sh_type: 0, flags: 0, addr: 0, off: 0, size: 0, link: 0, entsize: 0 }];
        for (s, off) in sections.iter().zip(&load_offsets) {
            let mut flags = SHF_ALLOC;
            if s.flags.x {
                flags |= SHF_EXECINSTR;
            }
            if s.flags.w {
                flags |= SHF_WRITE;
            }
            shdrs.push(Shdr {
                name: name_off(&s.name, &mut shstrtab),
                sh_type: SHT_PROGBITS,
                flags,
                addr: s.vaddr,
                off: *off,
                size: s.bytes.len() as u64,
                link: 0,
                entsize: 0,
            });
        }
        let strtab_index = (shdrs.len() + 2) as u32; // after .extmap and .symtab
        shdrs.push(Shdr {
            name: name_off(".extmap", &mut shstrtab),
            sh_type: SHT_PROGBITS,
            flags: 0,
            addr: 0,
            off: extmap_off,
            size: extmap.len() as u64,
            link: 0,
            entsize: 0,
        });
        shdrs.push(Shdr {
            name: name_off(".symtab", &mut shstrtab),
            sh_type: SHT_SYMTAB,
            flags: 0,
            addr: 0,
            off: symtab_off,
            size: symtab.len() as u64,
            link: strtab_index,
            entsize: SYM_SIZE,
        });
        shdrs.push(Shdr {
            name: name_off(".strtab", &mut shstrtab),
            sh_type: SHT_STRTAB,
            flags: 0,
            addr: 0,
            off: strtab_off,
            size: strtab.len() as u64,
            link: 0,
            entsize: 0,
        });
        let shstrtab_off = cursor;
        let shstrndx = shdrs.len() as u16;
        shdrs.push(Shdr {
            name: name_off(".shstrtab", &mut shstrtab),
            sh_type: SHT_STRTAB,
            flags: 0,
            addr: 0,
            off: shstrtab_off,
            size: shstrtab.len() as u64,
            link: 0,
            entsize: 0,
        });
        cursor += shstrtab.len() as u64;
        let shdrs_off = (cursor + 7) & !7;

        // ---- emit ----
        let mut out = Vec::with_capacity(shdrs_off as usize + shdrs.len() * SHDR_SIZE as usize);
        // ELF header.
        out.extend_from_slice(&MAGIC);
        out.push(ELFCLASS64);
        out.push(ELFDATA2LSB);
        out.push(EV_CURRENT);
        out.extend_from_slice(&[0; 9]); // OS ABI + padding
        out.extend_from_slice(&(if self.shared_object { ET_DYN } else { ET_EXEC }).to_le_bytes());
        out.extend_from_slice(&EM_X86_64.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes()); // e_version
        out.extend_from_slice(&self.entry.to_le_bytes());
        out.extend_from_slice(&phdrs_off.to_le_bytes());
        out.extend_from_slice(&shdrs_off.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // e_flags
        out.extend_from_slice(&(EHDR_SIZE as u16).to_le_bytes());
        out.extend_from_slice(&(PHDR_SIZE as u16).to_le_bytes());
        out.extend_from_slice(&(nload as u16).to_le_bytes());
        out.extend_from_slice(&(SHDR_SIZE as u16).to_le_bytes());
        out.extend_from_slice(&(shdrs.len() as u16).to_le_bytes());
        out.extend_from_slice(&shstrndx.to_le_bytes());
        debug_assert_eq!(out.len() as u64, EHDR_SIZE);

        // Program headers.
        for (s, off) in sections.iter().zip(&load_offsets) {
            out.extend_from_slice(&PT_LOAD.to_le_bytes());
            out.extend_from_slice(&s.flags.to_p_flags().to_le_bytes());
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&s.vaddr.to_le_bytes()); // p_vaddr
            out.extend_from_slice(&s.vaddr.to_le_bytes()); // p_paddr
            out.extend_from_slice(&(s.bytes.len() as u64).to_le_bytes()); // p_filesz
            out.extend_from_slice(&(s.bytes.len() as u64).to_le_bytes()); // p_memsz
            out.extend_from_slice(&PAGE.to_le_bytes());
        }

        // Section payloads.
        for (s, off) in sections.iter().zip(&load_offsets) {
            out.resize(*off as usize, 0);
            out.extend_from_slice(&s.bytes);
        }
        out.resize(extmap_off as usize, 0);
        out.extend_from_slice(&extmap);
        out.extend_from_slice(&symtab);
        out.extend_from_slice(&strtab);
        out.extend_from_slice(&shstrtab);
        out.resize(shdrs_off as usize, 0);

        // Section headers.
        for h in &shdrs {
            out.extend_from_slice(&h.name.to_le_bytes());
            out.extend_from_slice(&h.sh_type.to_le_bytes());
            out.extend_from_slice(&h.flags.to_le_bytes());
            out.extend_from_slice(&h.addr.to_le_bytes());
            out.extend_from_slice(&h.off.to_le_bytes());
            out.extend_from_slice(&h.size.to_le_bytes());
            out.extend_from_slice(&h.link.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes()); // sh_info
            out.extend_from_slice(&8u64.to_le_bytes()); // sh_addralign
            out.extend_from_slice(&h.entsize.to_le_bytes());
        }
        out
    }
}

/// Serialise a loaded [`Binary`] back into an ELF64 image. Sections
/// are named by their permissions (`.textN` / `.dataN` / `.rodataN`)
/// and keep their original virtual addresses, so the image parses back
/// to the same loaded view.
pub fn elf_image(bin: &Binary) -> Vec<u8> {
    let mut b = Builder::new().entry(bin.entry);
    for (i, seg) in bin.segments.iter().enumerate() {
        let name = if seg.flags.x {
            format!(".text{i}")
        } else if seg.flags.w {
            format!(".data{i}")
        } else {
            format!(".rodata{i}")
        };
        b = b.section(&name, seg.vaddr, seg.bytes.clone(), seg.flags);
    }
    for (addr, name) in &bin.externals {
        b = b.external(*addr, name);
    }
    for (addr, name) in &bin.symbols {
        b = b.symbol(*addr, name);
    }
    b.build()
}

fn encode_extmap(externals: &BTreeMap<u64, String>) -> Vec<u8> {
    let mut out = Vec::new();
    for (addr, name) in externals {
        out.extend_from_slice(&addr.to_le_bytes());
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out
}

fn encode_symtab(symbols: &BTreeMap<u64, String>, aliases: &[(u64, String)]) -> (Vec<u8>, Vec<u8>) {
    let mut symtab = vec![0u8; SYM_SIZE as usize]; // null symbol
    let mut strtab = vec![0u8];
    let all = symbols.iter().map(|(a, n)| (*a, n)).chain(aliases.iter().map(|(a, n)| (*a, n)));
    for (addr, name) in all {
        let name_off = strtab.len() as u32;
        strtab.extend_from_slice(name.as_bytes());
        strtab.push(0);
        symtab.extend_from_slice(&name_off.to_le_bytes());
        symtab.push(STB_GLOBAL_FUNC);
        symtab.push(0); // st_other
        symtab.extend_from_slice(&1u16.to_le_bytes()); // st_shndx (defined)
        symtab.extend_from_slice(&addr.to_le_bytes());
        symtab.extend_from_slice(&0u64.to_le_bytes()); // st_size
    }
    (symtab, strtab)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_sections_rejected() {
        let _ = Builder::new()
            .section(".text", 0x401000, vec![0; 16], SegmentFlags::RX)
            .section(".data", 0x401008, vec![0; 16], SegmentFlags::RW);
    }

    #[test]
    fn to_binary_matches_sections() {
        let b = Builder::new()
            .entry(0x401000)
            .section(".text", 0x401000, vec![0xc3], SegmentFlags::RX)
            .section(".data", 0x601000, vec![1, 2, 3], SegmentFlags::RW)
            .external(0x400800, "memset")
            .to_binary();
        assert_eq!(b.entry, 0x401000);
        assert_eq!(b.segments.len(), 2);
        assert_eq!(b.external_at(0x400800), Some("memset"));
    }
}

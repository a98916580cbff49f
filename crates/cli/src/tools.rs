//! The small tools: `unpack`, `info`, `disasm`, `gen`, `corpus`, `defs`
//! and `validate`.

use crate::{load_binaries, Args};
use dtaint_emu::{poison_all_rodata_names, validate as emu_validate, AttackConfig, Verdict};
use dtaint_fwbin::disasm as listing;
use dtaint_fwimage::{extract_image, generate_corpus, scan, triage, CorpusConfig};
use std::io::Write;

pub(crate) fn unpack(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let path = args.arg(0);
    let data = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let img = extract_image(&data).map_err(|e| e.to_string())?;
    emit!(
        out,
        "{} {} {} ({:?}, {} files)\n",
        img.metadata.vendor,
        img.metadata.product,
        img.metadata.version,
        img.metadata.arch,
        img.files.len()
    )?;
    let dir = args.value("--out");
    for f in &img.files {
        emit!(out, "  {:>8}  {}\n", f.data.len(), f.path)?;
        if let Some(dir) = dir {
            let dest = std::path::Path::new(dir).join(&f.path);
            if let Some(parent) = dest.parent() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
            std::fs::write(&dest, &f.data).map_err(|e| e.to_string())?;
        }
    }
    Ok(0)
}

pub(crate) fn info(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let path = args.arg(0);
    let data = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let sigs = scan(&data);
    emit!(out, "{path}: {} bytes, {} signature(s)\n", data.len(), sigs.len())?;
    for s in &sigs {
        emit!(out, "  {:#010x}  {:?}\n", s.offset, s.kind)?;
    }
    for (name, bin) in load_binaries(path).unwrap_or_default() {
        emit!(out, "\nbinary {name}: {} entry {:#x}\n", bin.arch, bin.entry)?;
        for s in &bin.sections {
            emit!(out, "  section {:<8} {:#010x} {:>8} bytes\n", s.name, s.addr, s.size)?;
        }
        emit!(out, "  {} functions, {} imports\n", bin.functions().len(), bin.imports.len())?;
    }
    Ok(0)
}

pub(crate) fn disasm(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let bins = load_binaries(args.arg(0))?;
    let (_, bin) = &bins[0];
    match args.opt_arg(1) {
        Some(func) => {
            let lines = listing::disassemble_function(bin, func)
                .ok_or_else(|| format!("no function `{func}`"))?;
            for l in lines {
                match l.call_target {
                    Some(t) => {
                        emit!(out, "{:#010x}: {:08x}  {:<28} ; → {t}\n", l.addr, l.word, l.text)?
                    }
                    None => emit!(out, "{:#010x}: {:08x}  {}\n", l.addr, l.word, l.text)?,
                }
            }
        }
        None => emit!(out, "{}", listing::listing(bin))?,
    }
    Ok(0)
}

pub(crate) fn gen(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let index = args.arg(0).parse().ok().filter(|i| (1..=6).contains(i));
    let index: usize = index.ok_or("gen: index must be 1..6")?;
    let dest = args.value("--out").expect("gen's usage line requires --out");
    let profile = dtaint_fwgen::table2_profiles().remove(index - 1);
    let mut fw = dtaint_fwgen::build_firmware(&profile);
    // Deliberate damage, for exercising the fault-tolerant scan path
    // (CI smoke, demos): the mutated executable replaces the pristine
    // one inside the packed image.
    if let Some(kind) = args.value("--corrupt") {
        let fault = match kind {
            "garbage-fn" => dtaint_fwgen::BinFault::GarbageOpcodes { index: 1, seed: 7 },
            "dangling-symbol" => dtaint_fwgen::BinFault::DanglingSymbol,
            "overlapping-symbols" => dtaint_fwgen::BinFault::OverlappingSymbols,
            other => {
                return Err(format!(
                "gen: unknown --corrupt `{other}` (garbage-fn|dangling-symbol|overlapping-symbols)"
            ))
            }
        };
        let mutant = dtaint_fwgen::corrupt_binary(&fw.binary, &fault).to_bytes();
        for f in &mut fw.image.files {
            if f.data.starts_with(&dtaint_fwbin::fbf::FBF_MAGIC) {
                f.data = mutant.clone();
            }
        }
    }
    std::fs::write(dest, fw.image.pack(false)).map_err(|e| e.to_string())?;
    let manifest = serde_json::to_string_pretty(&fw.ground_truth).map_err(|e| e.to_string())?;
    let manifest_path = format!("{dest}.truth.json");
    std::fs::write(&manifest_path, manifest).map_err(|e| e.to_string())?;
    emit!(
        out,
        "wrote {} ({} {}, {} functions) and {}\n",
        dest,
        profile.manufacturer,
        profile.firmware_version,
        profile.total_functions,
        manifest_path
    )?;
    Ok(0)
}

pub(crate) fn corpus(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let n = args.number("--n", 2000)?;
    let seed = args.number("--seed", 7)?;
    let corpus = generate_corpus(&CorpusConfig { n_images: n, seed, ..Default::default() });
    let stats = triage(&corpus);
    emit!(out, "year  total  unpacked  emulated\n")?;
    for (year, s) in &stats {
        emit!(out, "{year}  {:>5}  {:>8}  {:>8}\n", s.total, s.unpacked, s.emulated)?;
    }
    let total: usize = stats.values().map(|s| s.total).sum();
    let emulated: usize = stats.values().map(|s| s.emulated).sum();
    emit!(
        out,
        "emulation success: {emulated}/{total} ({:.1}%)\n",
        100.0 * emulated as f64 / total as f64
    )?;
    Ok(0)
}

pub(crate) fn defs(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let func = args.arg(1);
    let bins = load_binaries(args.arg(0))?;
    let (_, bin) = &bins[0];
    let sym = bin.function(func).ok_or_else(|| format!("no function `{func}`"))?;
    let cfg = dtaint_cfg::build_function_cfg(bin, sym).map_err(|e| e.to_string())?;
    let mut pool = dtaint_symex::ExprPool::new();
    let summary =
        dtaint_symex::analyze_function(bin, &cfg, &mut pool, &dtaint_symex::SymexConfig::default());
    emit!(out, "{}", summary.render(&pool))?;
    Ok(0)
}

pub(crate) fn validate(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let bins = load_binaries(args.arg(0))?;
    let (_, bin) = &bins[0];
    let entry = args
        .opt_arg(1)
        .map(str::to_owned)
        .or_else(|| bin.function_at(bin.entry).map(|s| s.name.clone()))
        .ok_or("validate: no entry function")?;
    let mut attack = AttackConfig::default();
    poison_all_rodata_names(bin, &mut attack);
    let verdict = emu_validate(bin, &entry, &attack);
    emit!(out, "{verdict:?}\n")?;
    Ok(match verdict {
        Verdict::NoEffect => 0,
        _ => 2,
    })
}

//! End-to-end firmware audit: unpack an image, carve out the CGI
//! binary, scan it, and compare against ground truth.
//!
//! This is the §IV workflow of the paper: "we use a custom-written
//! extraction utility … to extract the root file system. Then we choose
//! the binary file of interest and load it into the static symbolic
//! analysis module". The subject is the D-Link DIR-645-shaped profile
//! (Table II row 1) with its Tables IV/V vulnerability mix.
//!
//! ```sh
//! cargo run --release --example router_audit
//! ```

use dtaint_core::Dtaint;
use dtaint_fwgen::{build_firmware, table2_profiles};
use dtaint_fwimage::{extract_binaries, extract_image};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. "Download" the DIR-645 firmware (generate it, with ground truth).
    let profile = table2_profiles().remove(0);
    let firmware = build_firmware(&profile);
    let blob = firmware.image.pack(false);
    println!(
        "firmware image: {} {} ({} bytes packed)",
        profile.manufacturer,
        profile.firmware_version,
        blob.len()
    );

    // 2. Unpack and carve out executables.
    let image = extract_image(&blob)?;
    println!(
        "extracted root filesystem: {} files, vendor {}",
        image.files.len(),
        image.metadata.vendor
    );
    let binaries = extract_binaries(&image)?;
    let (path, binary) = &binaries[0];
    println!(
        "binary of interest: {} ({} functions, {} KB)",
        path,
        binary.functions().len(),
        binary.total_size() / 1024
    );

    // 3. Run DTaint.
    let report = Dtaint::new().analyze(binary, profile.firmware_version)?;
    println!(
        "analysis took {:.2?} (ssa {:.2?}, ddg {:.2?})",
        report.stage("scan"),
        report.stage("ssa"),
        report.stage("ddg")
    );
    println!();
    println!("== findings ==");
    for f in report.vulnerable_paths() {
        println!("{f}");
    }

    // 4. Score against ground truth.
    let expected: Vec<_> = firmware.ground_truth.iter().filter(|g| !g.sanitized).collect();
    let guarded = firmware.ground_truth.len() - expected.len();
    println!();
    println!("ground truth: {} planted vulnerabilities, {} guarded twins", expected.len(), guarded);
    println!(
        "detected: {} vulnerabilities over {} vulnerable paths",
        report.vulnerabilities(),
        report.vulnerable_paths().len()
    );
    for g in &expected {
        let hit = report
            .vulnerable_paths()
            .iter()
            .any(|f| f.sources.iter().any(|s| s.name == g.source) && f.sink == g.sink);
        println!(
            "  {:<28} {:>10} → {:<8} {}",
            g.id,
            g.source,
            g.sink,
            if hit { "DETECTED" } else { "MISSED" }
        );
    }
    assert_eq!(report.vulnerabilities(), expected.len());
    Ok(())
}

//! Records the run fingerprint's build facts: the commit (when built
//! from a git checkout), a hash of the sources the benchmark measures,
//! and the build profile.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Sources whose change changes what the benchmark measures.
const WATCHED: &[&str] = &["../crates", "../src", "../Cargo.toml", "src", "Cargo.toml"];

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for entry in entries.flatten() {
                collect(&entry.path(), out);
            }
        }
    } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
        out.push(path.to_path_buf());
    }
}

/// FNV-1a, 64 bit.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let mut files = Vec::new();
    for w in WATCHED {
        let p = manifest.join(w);
        println!("cargo:rerun-if-changed={}", p.display());
        collect(&p, &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        fnv(
            &mut hash,
            f.strip_prefix(&manifest)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        fnv(&mut hash, &std::fs::read(f).unwrap_or_default());
    }
    // Ask git only inside the repository's own checkout, so the build
    // reads nothing outside it.
    let git_head = manifest.join("../.git/HEAD");
    let commit = if git_head.exists() {
        println!("cargo:rerun-if-changed={}", git_head.display());
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(&manifest)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    } else {
        None
    }
    .unwrap_or_else(|| "unknown".to_owned());
    let profile = format!(
        "{} opt-level={}",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default()
    );
    println!("cargo:rustc-env=HDLBENCH_SOURCE_HASH={hash:016x}");
    println!("cargo:rustc-env=HDLBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=HDLBENCH_PROFILE={profile}");
}

//! Stamps the compiler version, git revision and build profile into the
//! binary, for the host-and-build record every result carries.

use std::fs;
use std::process::Command;

/// The commit `../.git/HEAD` names, read from the repository's own files
/// so nothing outside the checkout is consulted. A source export without
/// `.git` has no revision.
fn git_rev() -> Option<String> {
    let head = fs::read_to_string("../.git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(format!("../.git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string("../.git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let rev: String = git_rev().map_or("unknown".into(), |r| r.chars().take(12).collect());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
    for file in ["../.git/HEAD", "../.git/index"] {
        if std::path::Path::new(file).exists() {
            println!("cargo:rerun-if-changed={file}");
        }
    }
}

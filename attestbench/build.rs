//! Records how the benchmark was compiled, for the host block of its output:
//! the rustc version, the rustflags Cargo applied (the repository's
//! `.cargo/config.toml` sets `-C target-cpu=native`), the profile, and the
//! `[profile.release]` settings of this package next to the repository's.
//! The package is a workspace of its own, so only its own settings apply;
//! the host block shows when the two have drifted apart.

use std::path::Path;
use std::process::Command;

/// The `key = value` lines of the `[profile.release]` table in `manifest`,
/// comments and blank lines dropped, joined by `; `.
fn release_profile(manifest: &Path) -> String {
    let text = std::fs::read_to_string(manifest).unwrap_or_default();
    let mut settings = Vec::new();
    let mut inside = false;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside && !line.is_empty() {
            settings.push(line.split_whitespace().collect::<String>());
        }
    }
    settings.join("; ").replace('"', "'")
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let rustflags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    let profile = std::env::var("PROFILE").unwrap_or_default();
    let opt_level = std::env::var("OPT_LEVEL").unwrap_or_default();
    let own =
        Path::new(&std::env::var("CARGO_MANIFEST_DIR").unwrap_or_default()).join("Cargo.toml");
    let repository = own
        .parent()
        .and_then(Path::parent)
        .map(|root| root.join("Cargo.toml"))
        .unwrap_or_default();
    println!("cargo:rustc-env=ATTESTBENCH_RUSTC={version}");
    println!("cargo:rustc-env=ATTESTBENCH_RUSTFLAGS={rustflags}");
    println!("cargo:rustc-env=ATTESTBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=ATTESTBENCH_OPT_LEVEL={opt_level}");
    println!(
        "cargo:rustc-env=ATTESTBENCH_RELEASE_PROFILE={}",
        release_profile(&own)
    );
    println!(
        "cargo:rustc-env=ATTESTBENCH_REPOSITORY_RELEASE_PROFILE={}",
        release_profile(&repository)
    );
    println!("cargo:rerun-if-changed={}", own.display());
    println!("cargo:rerun-if-changed={}", repository.display());
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}

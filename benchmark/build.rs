//! Captures what the binary was built with, so every output can be
//! stamped with it: the compiler version and the effective rustflags
//! (which `.cargo/config.toml` sets and the program cannot see at run
//! time).
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    // Cargo joins the flags with the unit separator 0x1f.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-changed=build.rs");
}

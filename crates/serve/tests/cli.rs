//! The CLI refuses a zero worker, capacity, batch, tenant or sim-worker
//! count while parsing, before it simulates or trains anything, instead of
//! panicking or silently running with one later.

use std::process::Command;

#[test]
fn zero_sized_service_flags_exit_1_without_panicking() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/serve_soak.toml");
    for flag in [
        "--workers",
        "--capacity",
        "--batch",
        "--tenants",
        "--sim-workers",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dl2fence-serve"))
            .args(["soak", spec, flag, "0"])
            .output()
            .expect("the serve binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} 0: {stderr}");
        assert!(stderr.contains(flag), "the message names {flag}: {stderr}");
        assert!(stderr.contains("usage:"), "{flag} 0: {stderr}");
    }
}

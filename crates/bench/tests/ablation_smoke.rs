//! The five criterion benches left in this crate are on-demand ablations:
//! they gate nothing and no suite runs them. This runs each once in the
//! shim's `--test` smoke mode, so one that stops building or panics is
//! seen.

use std::process::Command;

#[test]
fn every_ablation_bench_runs_once_in_smoke_mode() {
    for name in [
        "game_kernel",
        "state_lookup",
        "strategy_repr",
        "rng_streams",
        "comm_pattern",
    ] {
        let out = Command::new(env!("CARGO"))
            .args(["bench", "-p", "bench", "--bench", name, "--", "--test"])
            .output()
            .expect("spawn cargo bench");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name}: {}\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("test-mode {name}/"))),
            "{name} ran no benchmark body:\n{stdout}"
        );
    }
}

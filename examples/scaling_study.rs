//! Scaling study — drive the distributed engine and the performance model
//! the way the paper drives Blue Gene (§V, §VI-B/C).
//!
//! Part 1 runs the *functional* distributed engine on the virtual cluster
//! (real rank threads, real point-to-point fitness pushes) and verifies
//! the trajectory is identical to the shared-memory engine at every rank
//! count. Part 2 asks the calibrated performance model for the paper's
//! headline numbers at Blue Gene scale.
//!
//! Run with: `cargo run --release --example scaling_study`

use evogame::cluster::dist::{run_distributed, DistConfig};
use evogame::prelude::*;

fn main() {
    // Part 1: functional scaling on the virtual cluster.
    let params = Params {
        mem_steps: 2,
        num_ssets: 24,
        generations: 60,
        seed: 99,
        game: GameConfig { rounds: 50, ..GameConfig::default() },
        ..Params::default()
    };
    let mut reference = Population::new(params.clone()).expect("valid parameters");
    reference.run(60);
    println!("Shared-memory reference: {} adoptions, {} mutations.",
        reference.stats().adoptions, reference.stats().mutations);

    println!("\nranks  trajectory  messages  msgs/generation");
    for ranks in [2usize, 3, 5, 9] {
        let out = run_distributed(&DistConfig::new(
            params.clone(),
            ranks,
            FitnessPolicy::OnDemand,
        ))
        .expect("fault-free run");
        let identical = out.assignments == reference.assignments();
        println!(
            "{:>5}  {:>10}  {:>8}  {:>15.1}",
            ranks,
            if identical { "identical" } else { "DIVERGED" },
            out.messages_sent,
            out.messages_sent as f64 / 60.0
        );
        assert!(identical, "distributed engine must match the reference");
    }
    println!("\nEvery rank count reproduces the exact same evolutionary trajectory —");
    println!("the decomposition changes only who computes, never what is computed.");

    // Part 2: the calibrated model at Blue Gene scale.
    let model = PerfModel::new(MachineProfile::bluegene_p());
    let w = Workload::large_study(4_096 * 1_024, 1_000);
    println!("\nBlue Gene/P model, S = 4,194,304 SSets, memory-six:");
    println!("procs     runtime     efficiency");
    for p in [1_024u64, 16_384, 262_144, 294_912] {
        println!(
            "{:>7}  {:>8.2} s  {:>9.1}%",
            p,
            model.predict(&w, p),
            model.efficiency(&w, 1_024, p) * 100.0
        );
    }
    let weak = model.weak_scaling(&Workload::large_study(0, 1_000), 4_096, &[1_024, 262_144]);
    println!(
        "\nWeak scaling (4,096 SSets/proc): {:.2}s at 1,024 procs vs {:.2}s at \
         262,144 procs — flat, as the paper reports (Fig 6).",
        weak[0].1, weak[1].1
    );
    let big = 4_096u128 * 262_144;
    println!(
        "At the top point the population is {} SSets = {:.1e} agents.",
        big,
        (big * big) as f64
    );
}

//! Artefacts from the Blue Gene/P performance model and the virtual
//! cluster: the large-system scaling figures (Figs 6 and 7) and the torus
//! rank-mapping ablation.

use crate::paper_data::{
    FIG6_SSETS_PER_PROC, FIG7_EFF_16K, FIG7_EFF_262K, LARGE_PROCS, NONPOW2_DEGRADATION,
};
use crate::{efficiencies, emit, print_table, Args};
use analysis::plot::{LinePlot, Series};
use cluster::dist::{run_distributed, run_distributed_timed, DistConfig};
use cluster::perf::{MachineProfile, PerfModel, Workload};
use cluster::topology::{RankMapping, Torus3D};
use evo_core::fitness::FitnessPolicy;
use evo_core::params::Params;
use ipd::game::GameConfig;

/// **Figure 6**: weak-scaling analysis at 4,096 SSets per processor
/// (memory-six, Blue Gene/P, up to 262,144 processors).
///
/// The paper: "the overall runtime for the simulations fluctuated by at
/// most 1 second as we scale from 1,024 processors up to the full 262,144
/// processors", reaching 1,073,741,824 SSets ≈ 10^18 agents. The model
/// regenerates the series; a functional weak-scaling run on the virtual
/// cluster (real message passing, small scale) validates that the
/// *communication volume per rank* stays flat, which is what the model's
/// flatness rests on.
pub(crate) fn fig6(_: &Args) {
    println!("== Figure 6: weak scaling, 4,096 SSets/processor, memory-six ==\n");
    let model = PerfModel::new(MachineProfile::bluegene_p());
    let template = Workload::large_study(0, 1_000);
    let series = model.weak_scaling(&template, FIG6_SSETS_PER_PROC, &LARGE_PROCS);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let t0 = series[0].1;
    for &(p, t) in &series {
        let ssets = FIG6_SSETS_PER_PROC * p;
        let agents = (ssets as u128) * (ssets as u128);
        rows.push(vec![
            p.to_string(),
            ssets.to_string(),
            format!("{agents:.2e}"),
            format!("{t:.2}"),
            format!("{:+.3}", t - t0),
        ]);
        csv.push(format!("{p},{ssets},{t}"));
    }
    print_table(
        &[
            "procs".into(),
            "SSets".into(),
            "agents".into(),
            "model runtime (s)".into(),
            "drift vs base".into(),
        ],
        &rows,
    );
    let max_drift = series
        .iter()
        .map(|&(_, t)| (t - t0).abs())
        .fold(0.0f64, f64::max);
    println!(
        "Max drift {:.3}s over a {:.0}s baseline — matches the paper's '\u{2264}1 second' \
         fluctuation claim.\n",
        max_drift, t0
    );

    // Functional validation on the virtual cluster: per-rank message count
    // stays constant as ranks and SSets grow together.
    println!("-- functional weak-scaling validation (virtual cluster, 20 SSets/rank) --");
    let mut fn_rows = Vec::new();
    for compute_ranks in [2usize, 4, 8] {
        let params = Params {
            mem_steps: 1,
            num_ssets: 20 * compute_ranks,
            generations: 40,
            pc_rate: 0.25,
            seed: 7,
            game: GameConfig {
                rounds: 16,
                ..GameConfig::default()
            },
            ..Params::default()
        };
        let out = run_distributed(&DistConfig::new(
            params,
            compute_ranks + 1,
            FitnessPolicy::OnDemand,
        ))
        .expect("fault-free benchmark run");
        fn_rows.push(vec![
            compute_ranks.to_string(),
            (20 * compute_ranks).to_string(),
            out.messages_sent.to_string(),
            format!("{:.1}", out.messages_sent as f64 / compute_ranks as f64),
        ]);
    }
    print_table(
        &[
            "compute ranks".into(),
            "SSets".into(),
            "total messages".into(),
            "messages/rank".into(),
        ],
        &fn_rows,
    );
    println!(
        "Per-rank message volume is flat: each fitness value a PC generation \
         needs is pushed once by its owner to every other rank, so the total \
         grows with the ranks, not with the population — the communication-side \
         basis of flat weak scaling."
    );
    let svg = LinePlot {
        title: "Fig 6: weak scaling, 4,096 SSets/processor, memory-six".into(),
        x_label: "processors".into(),
        y_label: "runtime (s)".into(),
        log2_x: true,
        series: vec![Series {
            label: "model".into(),
            points: series.iter().map(|&(p, t)| (p as f64, t)).collect(),
        }],
        ..LinePlot::default()
    };
    emit("fig6", "procs,ssets,model_seconds", &csv, Some(svg));
}

/// **Figure 7**: strong scaling for large systems.
///
/// The paper fixes the problem at the 1,024-processor weak-scaling point
/// (4,096 SSets/processor ⇒ 4,194,304 SSets, memory-six) and scales to
/// 262,144 processors: "99% linear scaling is maintained" through 16,384
/// processors and "82% scaling efficiency \[is\] exhibited at 262,144
/// processors". §VI-D adds that the full non-power-of-two 294,912-core
/// machine pays ≈15% more. The calibrated model regenerates all of it.
pub(crate) fn fig7(_: &Args) {
    println!("== Figure 7: strong scaling, large systems (S = 4,194,304, memory-six) ==\n");
    let model = PerfModel::new(MachineProfile::bluegene_p());
    let w = Workload::large_study(4_096 * 1_024, 1_000);
    let base = 1_024u64;
    let procs: [u64; 7] = [1_024, 2_048, 8_192, 16_384, 65_536, 262_144, 294_912];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut model_pts = Vec::new();
    for &p in &procs {
        let b = model.breakdown(&w, p);
        let e = model.efficiency(&w, base, p);
        model_pts.push((p as f64, e * 100.0));
        let paper_note = match p {
            16_384 => format!("paper: ~{:.0}%", FIG7_EFF_16K * 100.0),
            262_144 => format!("paper: {:.0}%", FIG7_EFF_262K * 100.0),
            294_912 => format!("paper: -{:.0}% penalty", NONPOW2_DEGRADATION * 100.0),
            _ => String::new(),
        };
        rows.push(vec![
            p.to_string(),
            format!("{:.2}", b.total),
            format!("{:.1}", model.speedup(&w, base, p)),
            format!("{:.1}%", e * 100.0),
            format!("{:.2}", b.penalty),
            paper_note,
        ]);
        csv.push(format!("{p},{},{e:.4},{}", b.total, b.penalty));
    }
    print_table(
        &[
            "procs".into(),
            "model runtime (s)".into(),
            "speedup".into(),
            "efficiency".into(),
            "penalty".into(),
            "paper".into(),
        ],
        &rows,
    );

    // The distributed engine on virtual-time ranks, its games charged at
    // the profile's per-game cost, beside the model for the same workload.
    println!("-- virtual-time cross-check: the engine's protocol (scaled workload) --");
    let sim_w = Workload {
        num_ssets: 4_096,
        mem_steps: 6,
        generations: 200,
        pc_rate: 0.05,
        mutation_rate: 0.05,
        policy: FitnessPolicy::OnDemand,
    };
    let params = Params {
        mem_steps: sim_w.mem_steps,
        num_ssets: sim_w.num_ssets as usize,
        generations: sim_w.generations,
        pc_rate: sim_w.pc_rate,
        mutation_rate: sim_w.mutation_rate,
        seed: 7,
        ..Params::default()
    };
    let compute: [u64; 5] = [2, 4, 8, 16, 32];
    let simulated: Vec<f64> = compute
        .iter()
        .map(|&c| {
            let config = DistConfig::new(params.clone(), c as usize + 1, sim_w.policy);
            run_distributed_timed(&config, &model.profile).expect("fault-free timed run").1
        })
        .collect();
    let sim_eff = efficiencies(&compute, &simulated);
    let mut sim_rows = Vec::new();
    for (i, &c) in compute.iter().enumerate() {
        sim_rows.push(vec![
            c.to_string(),
            format!("{:.3}", simulated[i]),
            format!("{:.1}%", sim_eff[i] * 100.0),
            format!("{:.3}", model.predict(&sim_w, c)),
            format!("{:.1}%", model.efficiency(&sim_w, compute[0], c) * 100.0),
        ]);
    }
    print_table(
        &[
            "compute ranks".into(),
            "virtual (s)".into(),
            "virtual eff".into(),
            "analytic (s)".into(),
            "analytic eff".into(),
        ],
        &sim_rows,
    );
    println!(
        "OnDemand: one owner plays each selected SSet's games at any rank count, so the \
         engine keeps {:.1}% efficiency at 32 compute ranks where the model keeps {:.1}%.\n",
        sim_eff[4] * 100.0,
        model.efficiency(&sim_w, 2, 32) * 100.0
    );

    let e16k = model.efficiency(&w, base, 16_384);
    let e262k = model.efficiency(&w, base, 262_144);
    println!(
        "Headline reproduction: {:.0}% at 16,384 procs (paper ~99%), {:.0}% at \
         262,144 procs (paper 82%).",
        e16k * 100.0,
        e262k * 100.0
    );
    let dil = Torus3D::balanced(294_912).dilation_vs_power_of_two();
    println!(
        "Topology note: the 72-rack torus's geometric dilation alone is only \
         {dil:.3}x — the paper's 15% penalty is dominated by software mapping, \
         which the model carries as an explicit non-power-of-two term."
    );
    let svg = LinePlot {
        title: "Fig 7: strong scaling, S = 4,194,304 SSets, memory-six".into(),
        x_label: "processors".into(),
        y_label: "parallel efficiency (%)".into(),
        log2_x: true,
        series: vec![
            Series { label: "model".into(), points: model_pts },
            Series {
                label: "paper points".into(),
                points: vec![(16_384.0, FIG7_EFF_16K * 100.0), (262_144.0, FIG7_EFF_262K * 100.0)],
            },
        ],
        ..LinePlot::default()
    };
    emit("fig7", "procs,model_seconds,efficiency,penalty", &csv, Some(svg));
}

/// Ablation: custom torus rank mappings (paper §VII future work).
///
/// The paper blames its 15% degradation at 294,912 cores on how the
/// algorithm maps onto a non-power-of-two torus and proposes to
/// "investigate custom mappings". This evaluates row-major vs serpentine
/// (snake) rank orderings on the 64-rack (power-of-two) and 72-rack
/// (full-machine) Blue Gene/P tori, costing the two traffic patterns the
/// engine generates: the binomial collective tree and a rank-order ring
/// exchange.
pub(crate) fn ablation_mapping(_: &Args) {
    println!("== Ablation: torus rank mappings (future-work §VII) ==\n");
    let cases = [
        ("64 racks (2^18)", Torus3D::balanced(262_144)),
        ("72 racks (full)", Torus3D::balanced(294_912)),
        ("small pow2", Torus3D::balanced(4_096)),
        ("small non-pow2", Torus3D::balanced(4_608)),
    ];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (label, torus) in &cases {
        let naive_ring = torus.ring_cost(RankMapping::RowMajor);
        let snake_ring = torus.ring_cost(RankMapping::Snake);
        let naive_tree = torus.tree_cost(RankMapping::RowMajor);
        let snake_tree = torus.tree_cost(RankMapping::Snake);
        rows.push(vec![
            label.to_string(),
            format!("{}x{}x{}", torus.x, torus.y, torus.z),
            naive_ring.to_string(),
            snake_ring.to_string(),
            format!("{:.1}%", 100.0 * (1.0 - snake_ring as f64 / naive_ring as f64)),
            naive_tree.to_string(),
            snake_tree.to_string(),
        ]);
        csv.push(format!(
            "{label},{naive_ring},{snake_ring},{naive_tree},{snake_tree}"
        ));
    }
    print_table(
        &[
            "partition".into(),
            "torus".into(),
            "ring hops (row-major)".into(),
            "ring hops (snake)".into(),
            "ring saving".into(),
            "tree hops (row-major)".into(),
            "tree hops (snake)".into(),
        ],
        &rows,
    );
    println!(
        "The serpentine mapping makes every consecutive-rank exchange a single \
         hop — the neighbour-traffic side of the paper's proposed custom \
         mappings. Binomial-tree traffic is dominated by its power-of-two \
         strides and needs blocked/subtree mappings instead, which is exactly \
         why the paper calls this out as future work."
    );
    emit(
        "ablation_mapping",
        "partition,ring_rowmajor,ring_snake,tree_rowmajor,tree_snake",
        &csv,
        None,
    );
}

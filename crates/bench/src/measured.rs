//! Artefacts measured on this machine: real engine runs (Fig 2, the sweep)
//! and the timed game kernel (Fig 4).

use crate::paper_data::{FIG2_GENERATIONS, FIG2_SSETS, FIG2_WSLS_FRACTION, TABLE6_PROCS, TABLE6_SECONDS};
use crate::{emit, experiments_file, print_table, Args};
use analysis::classify::composition;
use analysis::heatmap::{render_ascii, HeatmapOptions};
use analysis::kmeans::{kmeans, KMeansConfig};
use analysis::plot::{LinePlot, Series};
use analysis::stats::{fraction_matching, mean_cooperativity, shannon_diversity};
use cluster::perf::measure_game_cost;
use evo_core::fitness::FitnessPolicy;
use evo_core::params::{Params, StrategyKind};
use evo_core::population::Population;
use ipd::state::StateSpace;

/// **Figure 2**: the WSLS validation study (§VI-A).
///
/// The paper evolved 5,000 SSets of probabilistic memory-one strategies for
/// 10^7 generations on 2,048 Blue Gene/L processors and found 85% of SSets
/// adopting Win-Stay Lose-Shift, "consistent with the results by Nowak et
/// al." This runs the *same dynamics* at a scale one core can hold
/// (population and generations set by `--ssets`/`--generations`), renders
/// the paper's initial/final population views (rows = SSets, columns =
/// states, k-means-clustered), and reports the WSLS fraction.
pub(crate) fn fig2(args: &Args) {
    let ssets = args.count("--ssets") as usize;
    let generations = args.count("--generations");
    let seed = args.count("--seed");
    let noise = args.real("--noise");

    println!("== Figure 2: WSLS validation ==");
    println!(
        "paper: {FIG2_SSETS} SSets x {FIG2_GENERATIONS} generations -> {:.0}% WSLS",
        FIG2_WSLS_FRACTION * 100.0
    );
    println!("this run: {ssets} SSets x {generations} generations (seed {seed})\n");

    let mut params = Params::wsls_validation(ssets, generations);
    params.seed = seed;
    params.game.noise = noise;
    obs::set_enabled(true); // span + per-generation timings for the manifest
    let mut pop = Population::new(params).expect("valid parameters");
    pop.fitness_policy = FitnessPolicy::OnDemand;
    if args.switch("--expected") {
        // Variance-free ablation: selection on exact expected payoffs.
        pop.expected_fitness = true;
        println!("(expected-fitness mode: exact Markov payoffs, no sampling noise)\n");
    }

    let initial = pop.snapshot();
    let t0 = std::time::Instant::now();
    let stats = pop.run_to_end();
    let elapsed = t0.elapsed().as_secs_f64();
    let fin = pop.snapshot();

    let opts = HeatmapOptions {
        cluster: Some(KMeansConfig {
            k: 8,
            seed,
            ..KMeansConfig::default()
        }),
        max_rows: 48,
        scale: 4,
    };
    println!("-- population at generation 0 (rows clustered, C/c/d/D = coop prob) --");
    print!("{}", render_ascii(&initial, &opts));
    println!("\n-- population at generation {generations} --");
    print!("{}", render_ascii(&fin, &opts));

    // WSLS in our CC,CD,DC,DD state order is [1,0,0,1] (the paper's [0101]
    // under its 00,01,11,10 ordering). A strategy "is" WSLS when every
    // coordinate rounds to it.
    let wsls = [1.0, 0.0, 0.0, 1.0];
    let frac0 = fraction_matching(&initial, &wsls, 0.499);
    let frac1 = fraction_matching(&fin, &wsls, 0.499);
    let clusters = kmeans(&fin.features, &KMeansConfig { k: 4, seed, ..KMeansConfig::default() });
    let dominant = clusters.clusters_by_size()[0];
    let centroid = &clusters.centroids[dominant];

    println!("\nruntime: {elapsed:.1}s  PC events: {}  adoptions: {}  mutations: {}",
        stats.pc_events, stats.adoptions, stats.mutations);
    println!("mean cooperativity: start {:.3} -> end {:.3}",
        mean_cooperativity(&initial), mean_cooperativity(&fin));
    println!("strategy diversity (Shannon): start {:.2} -> end {:.2}",
        shannon_diversity(&initial), shannon_diversity(&fin));
    println!("dominant cluster centroid [p_CC p_CD p_DC p_DD]: [{:.2} {:.2} {:.2} {:.2}] (size {})",
        centroid[0], centroid[1], centroid[2], centroid[3], clusters.sizes[dominant]);
    println!("WSLS-rounding fraction: start {:.1}% -> end {:.1}%   (paper: {:.0}% at {}x scale)",
        frac0 * 100.0, frac1 * 100.0, FIG2_WSLS_FRACTION * 100.0,
        FIG2_GENERATIONS / generations.max(1));

    let rows: Vec<String> = vec![
        format!("0,{:.4},{:.4},{:.4}", frac0, mean_cooperativity(&initial), shannon_diversity(&initial)),
        format!("{generations},{:.4},{:.4},{:.4}", frac1, mean_cooperativity(&fin), shannon_diversity(&fin)),
    ];
    emit("fig2", "generation,wsls_fraction,mean_coop,shannon", &rows, None);

    let manifest = pop.manifest(elapsed);
    println!(
        "telemetry: {} games, {} rounds, {} RNG streams, {} fermi updates",
        manifest.counters.games_played,
        manifest.counters.rounds_simulated,
        manifest.counters.rng_streams,
        manifest.counters.fermi_updates
    );
    // The run's telemetry beside its figure (schema in docs/OBSERVABILITY.md).
    let mpath = experiments_file("fig2_manifest.json");
    std::fs::write(&mpath, manifest.to_json()).expect("write manifest");
    println!("run manifest written to {}", mpath.display());
}

/// **Figure 4**: run-time growth with memory steps.
///
/// The paper attributes the growth to *state identification*: "during each
/// round, each agent must determine the current state of the game by
/// comparing it with its current view. As the number of memory steps
/// increases, the size of the state description … also increase\[s\]". This
/// measures the real Rust kernel both ways — the paper's linear
/// `find_state` scan and our O(1) rolling index — per memory step, showing
/// that the growth lives in the lookup, exactly as the paper argues
/// (and that the O(1) index removes it).
pub(crate) fn fig4(_: &Args) {
    println!("== Figure 4: runtime vs memory steps (measured local kernel) ==\n");
    let rounds = 200;

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut scan_costs = Vec::new();
    let mut fast_pts = Vec::new();
    let mut slow_pts = Vec::new();
    for mem in 0..=6usize {
        let fast = measure_game_cost(mem, rounds, false);
        let slow = measure_game_cost(mem, rounds, true);
        let states = 1usize << (2 * mem);
        rows.push(vec![
            format!("memory-{mem}"),
            states.to_string(),
            format!("{:.2}", fast * 1e6),
            format!("{:.2}", slow * 1e6),
            format!("{:.1}x", slow / fast),
        ]);
        csv.push(format!("{mem},{states},{fast},{slow}"));
        scan_costs.push(slow);
        fast_pts.push((mem as f64, fast * 1e6));
        slow_pts.push((mem as f64, slow * 1e6));
    }
    print_table(
        &[
            "memory".into(),
            "states".into(),
            "O(1) us/game".into(),
            "linear-scan us/game".into(),
            "scan penalty".into(),
        ],
        &rows,
    );

    // Shape comparison against the paper's own memory-step growth
    // (Table VI, smallest processor count = most compute-bound column).
    println!("Relative runtime growth, memory-1 = 1.0:");
    let paper_base = TABLE6_SECONDS[0].1[0];
    let local_base = scan_costs[1];
    let mut growth_rows = Vec::new();
    for (i, (mem, row)) in TABLE6_SECONDS.iter().enumerate() {
        growth_rows.push(vec![
            format!("memory-{mem}"),
            format!("{:.1}x", row[0] / paper_base),
            format!("{:.1}x", scan_costs[i + 1] / local_base),
        ]);
    }
    print_table(
        &[
            "memory".into(),
            format!("paper (P={})", TABLE6_PROCS[0]),
            "local linear-scan kernel".into(),
        ],
        &growth_rows,
    );
    let fast_growth = fast_pts[6].1 / fast_pts[1].1;
    let scan_growth = scan_costs[6] / scan_costs[1];
    println!(
        "From memory-1 to memory-6 (1024x the states) this run measured the linear \
         scan growing {scan_growth:.0}x and the O(1)-index kernel {fast_growth:.1}x: the \
         scan's extra growth is the state identification the paper blames."
    );
    let svg = LinePlot {
        title: "Fig 4: game cost vs memory depth (measured, 200 rounds)".into(),
        x_label: "memory steps".into(),
        y_label: "microseconds per game".into(),
        log2_x: false,
        series: vec![
            Series { label: "paper's linear scan".into(), points: slow_pts },
            Series { label: "O(1) rolling index".into(), points: fast_pts },
        ],
        ..LinePlot::default()
    };
    emit(
        "fig4",
        "mem,states,o1_seconds_per_game,linear_scan_seconds_per_game",
        &csv,
        Some(svg),
    );
}

/// Parameter sweep on the real engine — the production-style experiment
/// the paper's framework exists to enable: how do memory depth, noise, and
/// selection intensity shape the evolved population?
///
/// Runs a grid of small populations (one core, OnDemand fitness), then
/// reports each cell's final cooperativity and the named-strategy
/// composition of its population.
pub(crate) fn sweep(args: &Args) {
    let ssets = args.count("--ssets") as usize;
    let generations = args.count("--generations");
    let seed = args.count("--seed");
    println!(
        "== Engine sweep: memory x noise, {ssets} SSets x {generations} generations ==\n"
    );

    let memories = [1usize, 2, 3];
    let noises = [0.0, 0.02, 0.05];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let t0 = std::time::Instant::now();
    for &mem in &memories {
        for &noise in &noises {
            let mut params = Params {
                mem_steps: mem,
                num_ssets: ssets,
                generations,
                seed,
                kind: StrategyKind::Pure,
                ..Params::default()
            };
            params.game.noise = noise;
            let mut pop = Population::new(params).expect("valid parameters");
            pop.fitness_policy = FitnessPolicy::OnDemand;
            pop.run_to_end();
            let snap = pop.snapshot();
            let coop = mean_cooperativity(&snap);
            let space = StateSpace::new(mem).expect("valid");
            let comp = composition(&snap, &space, 0.26);
            let top: Vec<String> = comp
                .iter()
                .take(2)
                .map(|(n, c)| format!("{n} {:.0}%", 100.0 * *c as f64 / ssets as f64))
                .collect();
            rows.push(vec![
                format!("memory-{mem}"),
                format!("{noise:.2}"),
                format!("{coop:.3}"),
                format!("{}", pop.distinct_strategies()),
                top.join(", "),
            ]);
            csv.push(format!("{mem},{noise},{coop:.4},{}", pop.distinct_strategies()));
        }
    }
    print_table(
        &[
            "memory".into(),
            "noise".into(),
            "cooperativity".into(),
            "distinct".into(),
            "nearest classics (top 2)".into(),
        ],
        &rows,
    );
    println!("sweep wall-clock: {:.1}s", t0.elapsed().as_secs_f64());
    emit("sweep", "mem,noise,cooperativity,distinct", &csv, None);
}

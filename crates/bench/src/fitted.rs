//! Artefacts fitted to the paper's published data: Tables VI–VIII and the
//! efficiency curves of Figs 3 and 5.

use crate::paper_data::{
    TABLE6_GENERATIONS, TABLE6_PROCS, TABLE6_SECONDS, TABLE6_SSETS, TABLE7_PROCS, TABLE7_SECONDS,
    TABLE8_PRINTED,
};
use crate::{efficiencies, emit, fmt_secs, print_table, Args};
use analysis::plot::{LinePlot, Series};
use cluster::perf::{fit_strong_scaling, measure_game_cost, FittedRow, MachineProfile, PerfModel, Workload};
use std::fmt::Display;

/// Table VII runs are memory-one full runs; the fit treats each row's
/// `S²` games as its per-generation work (the G·c_game product is absorbed
/// into the fitted cost, so the generation count only scales units).
const TABLE7_GENERATIONS: u64 = 1_000;

/// One row of a published runtime table with the three-term strong-scaling
/// model (`T = G·(work·c_game/P + const + log·depth)`) least-squares fitted
/// to it.
struct Fitted<K> {
    key: K,
    paper: &'static [f64],
    fit: FittedRow,
    /// The fitted model's seconds at each of the table's processor counts.
    model: Vec<f64>,
}

/// Fit every row of a published table: `work` gives a row's games per
/// generation from its key.
fn fit_rows<K: Copy, const N: usize>(
    procs: &[u64; N],
    table: &'static [(K, [f64; N])],
    generations: u64,
    work: impl Fn(K) -> f64,
) -> Vec<Fitted<K>> {
    table
        .iter()
        .map(|(key, paper)| {
            let work = work(*key);
            let points: Vec<(u64, f64)> = procs.iter().copied().zip(paper.iter().copied()).collect();
            let fit = fit_strong_scaling(&points, work, generations);
            let model = procs.iter().map(|&p| fit.predict(work, generations, p)).collect();
            Fitted { key: *key, paper, fit, model }
        })
        .collect()
}

/// Table VI's rows (memory-one through memory-six at 1,024 SSets), fitted.
fn table6_rows() -> Vec<Fitted<usize>> {
    let work = (TABLE6_SSETS * TABLE6_SSETS) as f64;
    fit_rows(&TABLE6_PROCS, &TABLE6_SECONDS, TABLE6_GENERATIONS, |_| work)
}

/// Table VII's rows (1,024 through 32,768 SSets), fitted.
fn table7_rows() -> Vec<Fitted<u64>> {
    fit_rows(&TABLE7_PROCS, &TABLE7_SECONDS, TABLE7_GENERATIONS, |s| (s * s) as f64)
}

/// Print a fitted table — for each row the paper's runtimes, then the
/// model's with the fit's RMS relative error — and return its CSV rows
/// (`key,procs,paper_seconds,model_seconds`).
fn print_fitted<K: Display>(
    key_header: &str,
    procs: &[u64],
    rows: &[Fitted<K>],
    label: impl Fn(&K) -> String,
) -> Vec<String> {
    let mut header: Vec<String> = vec![key_header.into(), "series".into()];
    header.extend(procs.iter().map(|p| p.to_string()));
    header.push("fit rms".into());
    let mut cells = Vec::new();
    let mut csv = Vec::new();
    for r in rows {
        let mut paper = vec![label(&r.key), "paper".into()];
        paper.extend(r.paper.iter().map(|&t| fmt_secs(t)));
        paper.push(String::new());
        let mut model = vec![String::new(), "model".into()];
        model.extend(r.model.iter().map(|&t| fmt_secs(t)));
        model.push(format!("{:.1}%", r.fit.rms_rel_error * 100.0));
        cells.push(paper);
        cells.push(model);
        for ((p, paper), model) in procs.iter().zip(r.paper).zip(&r.model) {
            csv.push(format!("{},{p},{paper},{model}", r.key));
        }
    }
    print_table(&header, &cells);
    csv
}

/// A row label followed by efficiencies as whole percentages.
fn percent_row(mut cells: Vec<String>, eff: &[f64]) -> Vec<String> {
    cells.extend(eff.iter().map(|e| format!("{:.0}%", e * 100.0)));
    cells
}

/// **Table VI**: total runtime (seconds) for 1,024 SSets as the number of
/// memory steps increases, across 128–2,048 processors.
///
/// For each memory-step row, the three-term strong-scaling model is
/// least-squares fitted to the paper's published row, then the fitted
/// model regenerates the row so paper and model can be compared cell by
/// cell. The fitted per-game costs are also reported against this
/// machine's measured Rust kernel.
pub(crate) fn table6(_: &Args) {
    println!("== Table VI: runtime (s), 1,024 SSets, memory-1..6, 1,000 generations ==\n");
    let rows = table6_rows();
    let csv = print_fitted("memory", &TABLE6_PROCS, &rows, |mem| format!("memory-{mem}"));

    println!("Fitted per-game cost vs this machine's measured kernel (200-round game):");
    let mut cost_rows = Vec::new();
    for r in &rows {
        let local_fast = measure_game_cost(r.key, 200, false);
        let local_slow = measure_game_cost(r.key, 200, true);
        cost_rows.push(vec![
            format!("memory-{}", r.key),
            format!("{:.2} us", r.fit.game_cost * 1e6),
            format!("{:.2} us", local_fast * 1e6),
            format!("{:.2} us", local_slow * 1e6),
        ]);
    }
    print_table(
        &[
            "memory".into(),
            "fitted BG/L".into(),
            "local O(1)".into(),
            "local linear-scan".into(),
        ],
        &cost_rows,
    );
    emit("table6", "mem,procs,paper_seconds,model_seconds", &csv, None);
}

/// **Figure 3**: strong-scaling parallel efficiency for memory-one through
/// memory-six strategies at 1,024 SSets.
///
/// Efficiency is "the percent of ideal speedup achieved for each processor
/// count" relative to the 128-processor base. Both the paper's measured
/// efficiencies (derived from Table VI) and the fitted model's curve are
/// printed; the paper's observation — "the addition of more memory steps
/// has only a small impact on parallel efficiency" — is checked by the
/// spread across memory rows.
pub(crate) fn fig3(_: &Args) {
    println!("== Figure 3: strong-scaling efficiency, 1,024 SSets, memory-1..6 ==\n");
    let mut header: Vec<String> = vec!["memory".into(), "series".into()];
    header.extend(TABLE6_PROCS.iter().map(|p| p.to_string()));

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut spread_at_max: Vec<f64> = Vec::new();
    let mut svg_series: Vec<Series> = Vec::new();
    for r in table6_rows() {
        let mem = r.key;
        let paper_eff = efficiencies(&TABLE6_PROCS, r.paper);
        let model_eff = efficiencies(&TABLE6_PROCS, &r.model);
        rows.push(percent_row(vec![format!("memory-{mem}"), "paper".into()], &paper_eff));
        rows.push(percent_row(vec![String::new(), "model".into()], &model_eff));
        for (i, &p) in TABLE6_PROCS.iter().enumerate() {
            csv.push(format!("{mem},{p},{:.4},{:.4}", paper_eff[i], model_eff[i]));
        }
        spread_at_max.push(*paper_eff.last().expect("nonempty"));
        svg_series.push(Series {
            label: format!("memory-{mem} (paper)"),
            points: TABLE6_PROCS
                .iter()
                .zip(&paper_eff)
                .map(|(&p, &e)| (p as f64, e * 100.0))
                .collect(),
        });
    }
    print_table(&header, &rows);

    let (min, max) = (
        spread_at_max.iter().cloned().fold(f64::INFINITY, f64::min),
        spread_at_max.iter().cloned().fold(0.0, f64::max),
    );
    println!(
        "Paper observation check: efficiency spread across memory steps at {} procs is \
         {:.0}%-{:.0}% — memory depth has only a modest impact on scaling.",
        TABLE6_PROCS.last().expect("nonempty"),
        min * 100.0,
        max * 100.0
    );
    let svg = LinePlot {
        title: "Fig 3: strong-scaling efficiency vs memory depth (1,024 SSets)".into(),
        x_label: "processors".into(),
        y_label: "parallel efficiency (%)".into(),
        log2_x: true,
        series: svg_series,
        ..LinePlot::default()
    };
    emit("fig3", "mem,procs,paper_efficiency,model_efficiency", &csv, Some(svg));
}

/// **Table VII**: total runtime (seconds) for full runs as the number of
/// SSets grows from 1,024 to 32,768 across 256–2,048 processors.
///
/// "The number of SSets greatly increases the overall runtime … because the
/// number of games that need to be modeled grows with the square of the
/// number of SSets." Each SSet-count row is fitted with the three-term
/// strong-scaling model and regenerated; a cross-row check verifies the
/// quadratic work growth in the paper data.
pub(crate) fn table7(_: &Args) {
    println!("== Table VII: runtime (s) as the number of SSets increases ==\n");
    let csv = print_fitted("SSets", &TABLE7_PROCS, &table7_rows(), u64::to_string);

    // Quadratic-growth check: runtime ratio between successive SSet rows at
    // the largest processor count should approach 4x.
    println!("Work growth check (ratio of successive rows at P = 2,048):");
    let mut growth = Vec::new();
    for pair in TABLE7_SECONDS.windows(2) {
        let ratio = pair[1].1[3] / pair[0].1[3];
        growth.push(vec![
            format!("{} -> {}", pair[0].0, pair[1].0),
            format!("{ratio:.2}x"),
            "4.00x".into(),
        ]);
    }
    print_table(
        &["SSets".into(), "paper ratio".into(), "S² ideal".into()],
        &growth,
    );
    emit("table7", "ssets,procs,paper_seconds,model_seconds", &csv, None);
}

/// **Figure 5**: strong-scaling efficiency as the population size (number
/// of SSets) increases.
///
/// The paper's finding: small populations stop scaling once per-processor
/// computation drops below the population-dynamics communication overhead,
/// while "as the population size grows, the impact of increasing the number
/// of processors for the simulation increases". The efficiency curves are
/// derived from the paper's Table VII and from the calibrated analytic
/// model (extended beyond the measured processor counts to expose the
/// knee).
pub(crate) fn fig5(_: &Args) {
    println!("== Figure 5: strong-scaling efficiency vs population size ==\n");
    let base = TABLE7_PROCS[0];

    // Paper-derived efficiencies.
    let mut header: Vec<String> = vec!["SSets".into(), "series".into()];
    header.extend(TABLE7_PROCS.iter().map(|p| p.to_string()));
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for r in table7_rows() {
        let ssets = r.key;
        let eff = efficiencies(&TABLE7_PROCS, r.paper);
        rows.push(percent_row(vec![ssets.to_string(), "paper".into()], &eff));
        for (i, &p) in TABLE7_PROCS.iter().enumerate() {
            csv.push(format!("{ssets},{p},paper,{:.4}", eff[i]));
        }
    }
    print_table(&header, &rows);

    // Model extension to larger processor counts: the knee becomes visible
    // when per-processor work shrinks below the communication overhead.
    let model = PerfModel::new(MachineProfile::bluegene_l());
    let ext_procs: [u64; 7] = [256, 512, 1_024, 2_048, 4_096, 8_192, 16_384];
    let mut header2: Vec<String> = vec!["SSets (model)".into()];
    header2.extend(ext_procs.iter().map(|p| p.to_string()));
    let mut rows2 = Vec::new();
    let mut svg_series = Vec::new();
    for (ssets, _) in &TABLE7_SECONDS {
        let w = Workload::small_study(1, *ssets);
        let eff: Vec<f64> = ext_procs.iter().map(|&p| model.efficiency(&w, base, p)).collect();
        rows2.push(percent_row(vec![ssets.to_string()], &eff));
        for (&p, e) in ext_procs.iter().zip(&eff) {
            csv.push(format!("{ssets},{p},model,{e:.4}"));
        }
        svg_series.push(Series {
            label: format!("{ssets} SSets"),
            points: ext_procs.iter().zip(&eff).map(|(&p, &e)| (p as f64, e * 100.0)).collect(),
        });
    }
    print_table(&header2, &rows2);

    // Knee check: the small population must lose efficiency well before the
    // large one does.
    let small = Workload::small_study(1, 1_024);
    let large = Workload::small_study(1, 32_768);
    let e_small = model.efficiency(&small, base, 16_384);
    let e_large = model.efficiency(&large, base, 16_384);
    println!(
        "Knee check at 16,384 procs: 1,024 SSets -> {:.0}% vs 32,768 SSets -> {:.0}% \
         (bigger populations keep scaling; small ones hit the communication floor).",
        e_small * 100.0,
        e_large * 100.0
    );
    let svg = LinePlot {
        title: "Fig 5: efficiency vs population size (model, extended)".into(),
        x_label: "processors".into(),
        y_label: "parallel efficiency (%)".into(),
        log2_x: true,
        series: svg_series,
        ..LinePlot::default()
    };
    emit("fig5", "ssets,procs,series,efficiency", &csv, Some(svg));
}

/// **Table VIII**: the number of agents handled per processor for each
/// (SSet count, processor count) pair of Table VII.
///
/// With the paper's default of one agent per potential opponent, the
/// population holds `S²` agents, so each of `P` processors handles `S²/P`.
/// The paper's printed Table VIII contains transcription anomalies (e.g.
/// non-monotone columns and a 1,024-processor column exceeding the
/// 256-processor one); this prints the arithmetically consistent grid and
/// flags where the paper's cells disagree — see EXPERIMENTS.md.
pub(crate) fn table8(_: &Args) {
    println!("== Table VIII: agents per processor (agents = SSets², per-proc = S²/P) ==\n");
    let mut header: Vec<String> = vec!["SSets".into()];
    header.extend(TABLE7_PROCS.iter().map(|p| p.to_string()));
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut mismatches = 0usize;
    for ((s, _), printed_row) in TABLE7_SECONDS.iter().zip(&TABLE8_PRINTED) {
        let mut r = vec![s.to_string()];
        for (&p, &printed) in TABLE7_PROCS.iter().zip(printed_row) {
            let agents = s * s / p;
            let marker = if printed == agents { "" } else { "*" };
            r.push(format!("{agents}{marker}"));
            csv.push(format!("{s},{p},{agents},{printed}"));
            mismatches += usize::from(printed != agents);
        }
        rows.push(r);
    }
    print_table(&header, &rows);
    println!(
        "Cells marked '*' differ from the paper's printed Table VIII \
         ({mismatches}/{} cells; the printed table is internally inconsistent — \
         e.g. its 1,024-proc column exceeds its 256-proc column).",
        TABLE7_SECONDS.len() * TABLE7_PROCS.len()
    );
    println!(
        "\nBalance guidance (paper §VI-B2): optimise agents/processor — enough \
         work to amortise communication, not so much that runtime is infeasible."
    );
    emit("table8", "ssets,procs,agents_per_proc,paper_printed_value", &csv, None);
}

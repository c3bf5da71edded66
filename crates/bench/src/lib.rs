//! Experiment harness behind the `reproduce` binary: every table and
//! figure of the paper's evaluation (§VI), a parameter sweep and a
//! future-work ablation, one entry each in [`ARTEFACTS`].
//!
//! Run one with `cargo run --release -p bench -- <artefact> [flags]`; with
//! no artefact, or an unknown one, the binary prints the table and exits 1.
//! Each artefact prints paper-vs-measured numbers and writes its CSV (and
//! its SVG, where it draws one) to `target/experiments/`.
//!
//! The artefacts are grouped by what they read: `fitted` fits
//! `cluster::perf`'s model to the paper's published tables ([`paper_data`]),
//! `modelled` runs the Blue Gene/P model and the virtual cluster, and
//! `measured` runs the local engine and game kernel.

#![forbid(unsafe_code)]

mod fitted;
mod measured;
mod modelled;
pub mod paper_data;

use analysis::plot::LinePlot;
use std::fs;
use std::path::PathBuf;

/// Every artefact `reproduce` can regenerate, in the paper's order, with the
/// flags it reads and their defaults. The dispatcher, the usage text and the
/// smoke test all read this table.
pub const ARTEFACTS: &[Artefact] = &[
    Artefact { name: "fig2", paper: "Fig 2", flags: FIG2_FLAGS, run: measured::fig2 },
    Artefact { name: "table6", paper: "Table VI", flags: &[], run: fitted::table6 },
    Artefact { name: "fig3", paper: "Fig 3", flags: &[], run: fitted::fig3 },
    Artefact { name: "fig4", paper: "Fig 4", flags: &[], run: measured::fig4 },
    Artefact { name: "table7", paper: "Table VII", flags: &[], run: fitted::table7 },
    Artefact { name: "fig5", paper: "Fig 5", flags: &[], run: fitted::fig5 },
    Artefact { name: "table8", paper: "Table VIII", flags: &[], run: fitted::table8 },
    Artefact { name: "fig6", paper: "Fig 6", flags: &[], run: modelled::fig6 },
    Artefact { name: "fig7", paper: "Fig 7", flags: &[], run: modelled::fig7 },
    Artefact { name: "sweep", paper: "-", flags: SWEEP_FLAGS, run: measured::sweep },
    Artefact { name: "ablation_mapping", paper: "§VII", flags: &[], run: modelled::ablation_mapping },
];

const FIG2_FLAGS: &[Flag] = &[
    Flag::Count("--ssets", 32),
    Flag::Count("--generations", 500_000),
    Flag::Count("--seed", 2012),
    Flag::Real("--noise", 0.0),
    Flag::Switch("--expected", false),
];

const SWEEP_FLAGS: &[Flag] = &[
    Flag::Count("--ssets", 24),
    Flag::Count("--generations", 60_000),
    Flag::Count("--seed", 1),
];

/// One artefact: its name, the paper's table or figure (`-` for none), the
/// flags it reads, and the function that prints it and writes its files.
#[derive(Debug)]
pub struct Artefact {
    pub name: &'static str,
    pub paper: &'static str,
    pub flags: &'static [Flag],
    pub run: fn(&Args),
}

/// A flag and its value: the default in [`ARTEFACTS`], the given or default
/// value in [`Args`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Flag {
    /// `--name N`, a non-negative integer.
    Count(&'static str, u64),
    /// `--name X`, a real number.
    Real(&'static str, f64),
    /// `--name` alone: on when given.
    Switch(&'static str, bool),
}

impl Flag {
    /// The flag as typed: `--name`.
    pub fn name(&self) -> &'static str {
        match *self {
            Flag::Count(name, _) | Flag::Real(name, _) | Flag::Switch(name, _) => name,
        }
    }
}

/// An artefact's flags after parsing.
#[derive(Debug)]
pub struct Args(Vec<Flag>);

impl Artefact {
    /// Parse the arguments after the artefact's name. An undeclared or
    /// repeated flag, a missing value and an unparsable one are refused,
    /// naming the flag.
    pub fn parse(&self, argv: &[String]) -> Result<Args, String> {
        let mut flags = self.flags.to_vec();
        let mut seen = vec![false; flags.len()];
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let at = flags
                .iter()
                .position(|f| f.name() == arg)
                .ok_or_else(|| format!("`{}` does not read {arg}", self.name))?;
            if std::mem::replace(&mut seen[at], true) {
                return Err(format!("{arg} is given twice"));
            }
            let raw = match flags[at] {
                Flag::Switch(..) => "",
                _ => argv.next().ok_or_else(|| format!("{arg} needs a value"))?,
            };
            let given = match flags[at] {
                Flag::Count(name, _) => raw.parse().ok().map(|n| Flag::Count(name, n)),
                Flag::Real(name, _) => raw.parse().ok().map(|x| Flag::Real(name, x)),
                Flag::Switch(name, _) => Some(Flag::Switch(name, true)),
            };
            flags[at] = given.ok_or_else(|| format!("invalid value {raw:?} for {arg}"))?;
        }
        Ok(Args(flags))
    }
}

impl Args {
    fn find<T>(&self, name: &str, value: impl Fn(Flag) -> Option<T>) -> T {
        self.0
            .iter()
            .find(|f| f.name() == name)
            .and_then(|&f| value(f))
            .unwrap_or_else(|| panic!("{name} is not a declared flag of this kind"))
    }

    /// The value of the declared count flag `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.find(name, |f| if let Flag::Count(_, n) = f { Some(n) } else { None })
    }

    /// The value of the declared real flag `name`.
    pub fn real(&self, name: &str) -> f64 {
        self.find(name, |f| if let Flag::Real(_, x) = f { Some(x) } else { None })
    }

    /// Whether the declared switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.find(name, |f| if let Flag::Switch(_, on) = f { Some(on) } else { None })
    }
}

/// The usage text: each artefact, its paper artefact and its flags with
/// their defaults.
pub fn usage() -> String {
    let mut out = String::from("usage: cargo run --release -p bench -- <artefact> [flags]\n\n");
    for a in ARTEFACTS {
        let flags: Vec<String> = a
            .flags
            .iter()
            .map(|f| match *f {
                Flag::Count(name, n) => format!("{name} {n}"),
                Flag::Real(name, x) => format!("{name} {x}"),
                Flag::Switch(name, _) => name.to_string(),
            })
            .collect();
        let line = format!("  {:<17} {:<11} {}", a.name, a.paper, flags.join(" "));
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Strong-scaling efficiency of each run against the first: the share of
/// ideal speedup `(t₀/t)·(p₀/p)` that `seconds[i]` on `procs[i]` achieves.
fn efficiencies(procs: &[u64], seconds: &[f64]) -> Vec<f64> {
    procs
        .iter()
        .zip(seconds)
        .map(|(&p, &t)| (seconds[0] / t) * procs[0] as f64 / p as f64)
        .collect()
}

/// `target/experiments/<file>`, where artefacts write; creates the directory.
fn experiments_file(file: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir).expect("create experiments dir");
    dir.join(file)
}

/// Write an artefact's `<name>.csv` (a header line, then the rows), and its
/// `<name>.svg` when it draws one, to `target/experiments/`, printing where
/// each landed.
fn emit(name: &str, header: &str, rows: &[String], plot: Option<LinePlot>) {
    let csv = experiments_file(&format!("{name}.csv"));
    let lines = std::iter::once(header).chain(rows.iter().map(String::as_str));
    fs::write(&csv, lines.map(|l| format!("{l}\n")).collect::<String>()).expect("write csv");
    println!("CSV written to {}", csv.display());
    if let Some(plot) = plot {
        let svg = experiments_file(&format!("{name}.svg"));
        plot.save(&svg).expect("write svg");
        println!("SVG written to {}", svg.display());
    }
}

/// Format a runtime in seconds the way the paper's tables do: integral
/// seconds above 100, two decimals below.
fn fmt_secs(t: f64) -> String {
    if t >= 100.0 {
        format!("{:.0}", t)
    } else if t >= 10.0 {
        format!("{:.1}", t)
    } else {
        format!("{:.2}", t)
    }
}

/// Print [`render_table`]'s table and a blank line.
fn print_table(header: &[String], rows: &[Vec<String>]) {
    println!("{}", render_table(header, rows));
}

/// Render an aligned table: `header` column labels, `rows` of cells; the
/// first column is left-aligned, the rest right-aligned.
fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                line.push_str(&format!("{:<w$}", cell, w = widths[0]));
            } else {
                line.push_str(&format!("  {:>w$}", cell, w = widths[i]));
            }
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(header, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_secs_matches_paper_style() {
        assert_eq!(fmt_secs(2207.4), "2207");
        assert_eq!(fmt_secs(26.53), "26.5");
        assert_eq!(fmt_secs(4.04), "4.04");
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["mem".into(), "128".into(), "2048".into()],
            &[vec!["one".into(), "26.5".into(), "4.04".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("mem"));
        assert!(lines[2].starts_with("one"));
    }

    #[test]
    fn parse_fills_defaults_and_reads_each_kind() {
        let fig2 = ARTEFACTS.iter().find(|a| a.name == "fig2").expect("listed");
        let argv: Vec<String> = ["--noise", "0.01", "--expected", "--seed", "9"]
            .map(String::from)
            .to_vec();
        let args = fig2.parse(&argv).expect("valid flags");
        assert_eq!(args.count("--ssets"), 32);
        assert_eq!(args.count("--seed"), 9);
        assert_eq!(args.real("--noise"), 0.01);
        assert!(args.switch("--expected"));
        assert!(!fig2.parse(&[]).expect("no flags").switch("--expected"));
    }

    #[test]
    fn emit_writes_header_then_rows() {
        emit("unit_test_csv", "a,b", &["1,2".to_string(), "3,4".to_string()], None);
        let text = fs::read_to_string(experiments_file("unit_test_csv.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
    }
}
